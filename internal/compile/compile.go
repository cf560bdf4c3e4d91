// Package compile binds a parsed SELECT statement against a catalog and
// produces a physical plan: single-table predicates are pushed into scans,
// equi-join predicates drive a left-deep hash-join tree in FROM order,
// EXISTS/IN subqueries become semi/anti hash joins, and aggregation,
// HAVING, ORDER BY and LIMIT layer on top. It is a rule-based planner —
// the paper's subject is what happens *after* the optimizer picked a plan,
// so plan choice is deliberately simple and predictable.
//
// Limitations (documented, erroring cleanly): self-joins of a table with
// itself via aliases, non-equi join conditions in ON, correlated
// subqueries beyond a single correlation equality, and NOT IN's
// NULL-propagating semantics (compiled as an anti join, i.e. NOT EXISTS
// semantics).
package compile

import (
	"fmt"
	"strings"

	"sqlprogress/internal/catalog"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlparse"
	"sqlprogress/internal/sqlval"
)

// Compile parses nothing: it takes an AST and a catalog and returns an
// executable plan.
func Compile(cat *catalog.Catalog, sel *sqlparse.Select) (exec.Operator, error) {
	c := &compiler{cat: cat, b: plan.NewBuilder(cat)}
	n, err := c.compileSelect(sel)
	if err != nil {
		return nil, err
	}
	return n.Op, nil
}

// CompileSQL parses and compiles a SQL string.
func CompileSQL(cat *catalog.Catalog, sql string) (exec.Operator, error) {
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return Compile(cat, sel)
}

type compiler struct {
	cat     *catalog.Catalog
	b       *plan.Builder
	aliases map[string]string // alias (lower) -> base table name
}

// fromEntry is one flattened FROM element.
type fromEntry struct {
	table, alias string
	joinKind     string // "", "inner", "left"
	on           sqlparse.Node
}

// joinStep places one FROM entry after the first: a hash join on the key
// columns (a cross join when there are none).
type joinStep struct {
	entry                fromEntry
	probeCols, buildCols []string
	reads                *colSet // columns the key conjuncts read
}

func (c *compiler) compileSelect(sel *sqlparse.Select) (plan.Node, error) {
	node, err := c.buildFromWhere(sel)
	if err != nil {
		return plan.Node{}, err
	}

	// Collect aggregates from the select list, HAVING and ORDER BY.
	aggs := collectAggs(sel)
	grouped := len(sel.GroupBy) > 0 || len(aggs) > 0

	// rewrites maps computed sub-expressions (aggregates, group-by
	// expressions) to the output columns carrying them above the
	// aggregation.
	var rewrites []rewrite
	if grouped {
		node, rewrites, err = c.buildAggregation(node, sel, aggs)
		if err != nil {
			return plan.Node{}, err
		}
		if sel.Having != nil {
			having := rewriteRefs(sel.Having, rewrites)
			var convErr error
			node = node.Filter(0.5, func(s *schema.Schema) expr.Expr {
				e, _, cerr := c.convert(s, having)
				if cerr != nil {
					convErr = cerr
					return expr.Literal(sqlval.Bool(true))
				}
				return e
			})
			if convErr != nil {
				return plan.Node{}, fmt.Errorf("HAVING: %w", convErr)
			}
		}
	}

	pre := node
	post, err := c.buildProjection(pre, sel, rewrites, grouped)
	if err != nil {
		return plan.Node{}, err
	}
	if sel.Distinct {
		post = post.Wrap(exec.NewDistinct(post.Op), post.Est()/2)
	}

	node = post
	if len(sel.OrderBy) > 0 {
		resolve := func(sch *schema.Schema) ([]exec.SortKey, error) {
			keys := make([]exec.SortKey, len(sel.OrderBy))
			for i, term := range sel.OrderBy {
				e, _, err := c.convert(sch, rewriteRefs(term.Expr, rewrites))
				if err != nil {
					return nil, err
				}
				keys[i] = exec.SortKey{Expr: e, Desc: term.Desc}
			}
			return keys, nil
		}
		// Prefer sorting the projected output (aliases resolve there); fall
		// back to sorting before projection for terms the projection drops
		// (e.g. ORDER BY COUNT(*) with the count not selected).
		if keys, rerr := resolve(post.Schema()); rerr == nil {
			node = post.SortKeys(keys...)
		} else if keys, rerr2 := resolve(pre.Schema()); rerr2 == nil {
			sorted := pre.SortKeys(keys...)
			node, err = c.buildProjection(sorted, sel, rewrites, grouped)
			if err != nil {
				return plan.Node{}, err
			}
			if sel.Distinct {
				// Distinct streams in input order, so the sort survives.
				node = node.Wrap(exec.NewDistinct(node.Op), node.Est()/2)
			}
		} else {
			return plan.Node{}, fmt.Errorf("ORDER BY: %w", rerr)
		}
	}
	if sel.Limit >= 0 {
		node = node.Top(sel.Limit)
	}
	return node, nil
}

// --- FROM / WHERE ---------------------------------------------------------------

func (c *compiler) buildFromWhere(sel *sqlparse.Select) (plan.Node, error) {
	entries, err := c.flattenFrom(sel)
	if err != nil {
		return plan.Node{}, err
	}

	conjuncts := splitAnd(sel.Where)
	// Explicit inner-join ON conditions join the shared conjunct pool;
	// left joins keep theirs (outer semantics).
	for _, e := range entries {
		if e.joinKind == "inner" && e.on != nil {
			conjuncts = append(conjuncts, splitAnd(e.on)...)
		}
	}

	perTable := map[string][]sqlparse.Node{} // table name -> pushable predicates
	var joins []sqlparse.Node                // equi-joins between tables
	var subs []sqlparse.Node                 // EXISTS / IN-subquery conjuncts
	var residual []sqlparse.Node

	for _, cj := range conjuncts {
		switch n := cj.(type) {
		case *sqlparse.ExistsNode:
			subs = append(subs, cj)
			continue
		case *sqlparse.NotNode:
			if _, ok := n.E.(*sqlparse.ExistsNode); ok {
				subs = append(subs, cj)
				continue
			}
		case *sqlparse.InNode:
			if n.Sub != nil {
				subs = append(subs, cj)
				continue
			}
		}
		tables, joinEq := c.classify(cj, entries)
		switch {
		case joinEq:
			joins = append(joins, cj)
		case len(tables) == 1:
			var only string
			for t := range tables {
				only = t
			}
			perTable[only] = append(perTable[only], cj)
		default:
			residual = append(residual, cj)
		}
	}

	scan := func(e fromEntry, push bool) (plan.Node, error) {
		preds := perTable[strings.ToLower(e.table)]
		if !push || len(preds) == 0 {
			return c.b.Scan(e.table), nil
		}
		var convErr error
		n := c.b.ScanFiltered(e.table, selGuess(len(preds)), func(s *schema.Schema) expr.Expr {
			parts := make([]expr.Expr, 0, len(preds))
			for _, p := range preds {
				e, _, err := c.convert(s, p)
				if err != nil {
					convErr = err
					return expr.Literal(sqlval.Bool(true))
				}
				parts = append(parts, e)
			}
			return expr.And(parts...)
		})
		return n, convErr
	}

	// Place the joins first: each later FROM entry consumes the key
	// conjuncts connecting it to the tables already placed.
	from := map[string]*schema.Schema{}
	for _, e := range entries {
		st, err := c.cat.Store(e.table)
		if err != nil {
			return plan.Node{}, err
		}
		from[strings.ToLower(e.table)] = st.Schema()
	}
	placed := map[string]bool{strings.ToLower(entries[0].table): true}
	usedJoin := make([]bool, len(joins))
	steps := make([]joinStep, 0, len(entries)-1)
	for _, e := range entries[1:] {
		tl := strings.ToLower(e.table)
		if placed[tl] {
			return plan.Node{}, fmt.Errorf("compile: table %s appears twice (self-joins are not supported)", e.table)
		}
		step := joinStep{entry: e}
		var keys []sqlparse.Node
		if e.joinKind == "left" {
			keys = splitAnd(e.on)
			step.probeCols, step.buildCols = c.equiKeys(keys, placed, tl)
			if len(step.probeCols) == 0 {
				return plan.Node{}, fmt.Errorf("compile: LEFT JOIN %s requires an equi-join ON condition", e.table)
			}
			// Outer joins must not push WHERE predicates below the join:
			// they filter the joined rows (NULL padding included) above it.
			residual = append(residual, perTable[tl]...)
		} else {
			for i, j := range joins {
				if usedJoin[i] {
					continue
				}
				pc, bc := c.equiKeys([]sqlparse.Node{j}, placed, tl)
				if len(pc) > 0 {
					step.probeCols = append(step.probeCols, pc...)
					step.buildCols = append(step.buildCols, bc...)
					keys = append(keys, j)
					usedJoin[i] = true
				}
			}
		}
		step.reads = newColSet()
		for _, k := range keys {
			c.addNode(step.reads, from, k)
		}
		placed[tl] = true
		steps = append(steps, step)
	}
	// Unused join conjuncts (e.g. cycles in the join graph) and residual
	// predicates become explicit filters.
	for i, j := range joins {
		if !usedJoin[i] {
			residual = append(residual, j)
		}
	}

	above := c.readsAbove(sel, from, residual, subs)
	cur, err := scan(entries[0], true)
	if err != nil {
		return plan.Node{}, err
	}
	for k, st := range steps {
		left := st.entry.joinKind == "left"
		build, err := scan(st.entry, !left)
		if err != nil {
			return plan.Node{}, err
		}
		switch {
		case left:
			cur = cur.HashJoinMulti(build, st.probeCols, st.buildCols, exec.LeftOuterJoin)
		case len(st.probeCols) == 0:
			// No connecting predicate: cross join via nested loops.
			cur = c.b.Cross(cur, build)
			continue
		default:
			cur = cur.HashJoinMulti(build, st.probeCols, st.buildCols, exec.InnerJoin)
		}
		cur = cur.PruneJoin(keepFor(above, steps, k))
	}

	if len(residual) > 0 {
		preds := residual
		var convErr error
		cur = cur.Filter(selGuess(len(preds)), func(s *schema.Schema) expr.Expr {
			parts := make([]expr.Expr, 0, len(preds))
			for _, p := range preds {
				e, _, err := c.convert(s, p)
				if err != nil {
					convErr = err
					return expr.Literal(sqlval.Bool(true))
				}
				parts = append(parts, e)
			}
			return expr.And(parts...)
		})
		if convErr != nil {
			return plan.Node{}, convErr
		}
	}

	for _, s := range subs {
		var err error
		cur, err = c.applySubquery(cur, s)
		if err != nil {
			return plan.Node{}, err
		}
	}
	return cur, nil
}

// selGuess scales the default selectivity guess by conjunct count.
func selGuess(n int) float64 {
	s := 1.0
	for i := 0; i < n && i < 3; i++ {
		s /= 3
	}
	return s
}

// flattenFrom validates aliases and flattens comma entries and explicit
// joins into placement order.
func (c *compiler) flattenFrom(sel *sqlparse.Select) ([]fromEntry, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("compile: empty FROM")
	}
	c.aliases = map[string]string{}
	var out []fromEntry
	add := func(table, alias, kind string, on sqlparse.Node) error {
		// Resolve through the storage seam: a scanned table may be an
		// in-memory relation or a disk-backed store (pager heap file).
		if _, err := c.cat.Store(table); err != nil {
			return err
		}
		if alias != "" {
			key := strings.ToLower(alias)
			if prev, ok := c.aliases[key]; ok && !strings.EqualFold(prev, table) {
				return fmt.Errorf("compile: duplicate alias %q", alias)
			}
			c.aliases[key] = table
		}
		out = append(out, fromEntry{table: table, alias: alias, joinKind: kind, on: on})
		return nil
	}
	for _, ref := range sel.From {
		if err := add(ref.Table, ref.Alias, "", nil); err != nil {
			return nil, err
		}
		for _, j := range ref.Joins {
			if err := add(j.Table, j.Alias, j.Kind, j.On); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// classify returns the base tables a conjunct touches, and whether it is a
// two-table equality usable as a join predicate.
func (c *compiler) classify(n sqlparse.Node, entries []fromEntry) (map[string]bool, bool) {
	tables := map[string]bool{}
	walkCols(n, false, func(col *sqlparse.ColNode) {
		if tbl := c.resolveTable(col); tbl != "" {
			tables[strings.ToLower(tbl)] = true
		}
	})
	if b, ok := n.(*sqlparse.BinNode); ok && b.Op == "=" && len(tables) == 2 {
		_, lIsCol := b.L.(*sqlparse.ColNode)
		_, rIsCol := b.R.(*sqlparse.ColNode)
		if lIsCol && rIsCol {
			return tables, true
		}
	}
	return tables, false
}

// resolveTable finds the base table a column reference belongs to. It
// resolves an explicit qualifier through the alias map, or searches the
// catalog for an unqualified name.
func (c *compiler) resolveTable(col *sqlparse.ColNode) string {
	if col.Table != "" {
		if t, ok := c.aliases[strings.ToLower(col.Table)]; ok {
			return t
		}
		return col.Table
	}
	found := ""
	for _, t := range c.cat.TableNames() {
		st, err := c.cat.Store(t)
		if err != nil {
			continue
		}
		if i, err := st.Schema().ColIndex("", col.Name); err == nil && i >= 0 {
			if found != "" {
				return "" // ambiguous
			}
			found = t
		}
	}
	return found
}

// equiKeys extracts probe/build key column names from conjuncts that
// equate a placed table's column with newTable's column.
func (c *compiler) equiKeys(conjuncts []sqlparse.Node, placed map[string]bool, newTable string) (probe, build []string) {
	for _, cj := range conjuncts {
		b, ok := cj.(*sqlparse.BinNode)
		if !ok || b.Op != "=" {
			continue
		}
		l, lok := b.L.(*sqlparse.ColNode)
		r, rok := b.R.(*sqlparse.ColNode)
		if !lok || !rok {
			continue
		}
		lt := strings.ToLower(c.resolveTable(l))
		rt := strings.ToLower(c.resolveTable(r))
		switch {
		case placed[lt] && rt == newTable:
			probe = append(probe, l.Name)
			build = append(build, r.Name)
		case placed[rt] && lt == newTable:
			probe = append(probe, r.Name)
			build = append(build, l.Name)
		}
	}
	return probe, build
}
