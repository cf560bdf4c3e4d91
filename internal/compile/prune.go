package compile

import (
	"strings"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlparse"
)

// Column pruning. Every inner and left outer hash join the compiler places
// outputs only the columns read above it: by the select list, GROUP BY,
// HAVING, ORDER BY, residual filters, the key conjuncts of joins placed
// later, and the subqueries applied on top. Scans stay full-width (their
// rows are zero-copy references into storage) and the plan tree is
// unchanged, so every GetNext count and bound is exactly the unpruned
// plan's. Pruning errs towards keeping: SELECT * or an expression the
// walker does not know keeps every column, and a reference it cannot pin
// to one FROM table keeps every column of that name.

// colSet is a set of column references read by some part of the query.
type colSet struct {
	all   bool            // keep every column
	names map[string]bool // lower-case name: kept in every table
	quals map[string]bool // lower-case "table.name"
}

func newColSet() *colSet {
	return &colSet{names: map[string]bool{}, quals: map[string]bool{}}
}

// has reports whether col is read.
func (s *colSet) has(col schema.Column) bool {
	name := strings.ToLower(col.Name)
	return s.all || s.names[name] || s.quals[strings.ToLower(col.Table)+"."+name]
}

// addRef records a column reference. A qualified reference to a FROM table
// that has the column pins that table's column; anything else — no
// qualifier, a subquery's alias, a qualifier convert would fall back from —
// keeps the name in every table.
func (c *compiler) addRef(s *colSet, from map[string]*schema.Schema, col *sqlparse.ColNode) {
	name := strings.ToLower(col.Name)
	if col.Table != "" {
		t := strings.ToLower(c.outerQualifier(col))
		if sch, ok := from[t]; ok {
			if i, err := sch.ColIndex("", col.Name); err == nil && i >= 0 {
				s.quals[t+"."+name] = true
				return
			}
		}
	}
	s.names[name] = true
}

// addNode records every column n reads, subqueries included.
func (c *compiler) addNode(s *colSet, from map[string]*schema.Schema, n sqlparse.Node) {
	if !walkCols(n, true, func(col *sqlparse.ColNode) { c.addRef(s, from, col) }) {
		s.all = true
	}
}

// readsAbove collects the columns read above the join tree: the select
// list, GROUP BY, HAVING, ORDER BY, the residual filters and the
// subquery conjuncts.
func (c *compiler) readsAbove(sel *sqlparse.Select, from map[string]*schema.Schema, residual, subs []sqlparse.Node) *colSet {
	s := newColSet()
	for _, item := range sel.Items {
		if item.Star {
			s.all = true
			return s
		}
		c.addNode(s, from, item.Expr)
	}
	for _, g := range sel.GroupBy {
		c.addNode(s, from, g)
	}
	if sel.Having != nil {
		c.addNode(s, from, sel.Having)
	}
	for _, o := range sel.OrderBy {
		c.addNode(s, from, o.Expr)
	}
	for _, n := range residual {
		c.addNode(s, from, n)
	}
	for _, n := range subs {
		c.addNode(s, from, n)
	}
	return s
}

// keepFor returns the column filter for the join placing steps[k]: a column
// survives if it is read above the join tree or by a later join's keys.
func keepFor(above *colSet, steps []joinStep, k int) func(schema.Column) bool {
	return func(col schema.Column) bool {
		if above.has(col) {
			return true
		}
		for _, st := range steps[k+1:] {
			if st.reads.has(col) {
				return true
			}
		}
		return false
	}
}

// walkCols calls fn for every column reference in n, descending into
// subqueries when into is set. It returns false if n holds an expression
// kind it does not know, whose references it therefore cannot vouch for.
func walkCols(n sqlparse.Node, into bool, fn func(*sqlparse.ColNode)) bool {
	walk := func(ns ...sqlparse.Node) bool {
		for _, x := range ns {
			if x != nil && !walkCols(x, into, fn) {
				return false
			}
		}
		return true
	}
	switch t := n.(type) {
	case *sqlparse.ColNode:
		fn(t)
	case *sqlparse.IntNode, *sqlparse.FloatNode, *sqlparse.StringNode,
		*sqlparse.BoolNode, *sqlparse.NullNode, *sqlparse.DateNode:
	case *sqlparse.BinNode:
		return walk(t.L, t.R)
	case *sqlparse.NotNode:
		return walk(t.E)
	case *sqlparse.LikeNode:
		return walk(t.E)
	case *sqlparse.InNode:
		if t.Sub != nil && into && !walkSelect(t.Sub, fn) {
			return false
		}
		return walk(t.E) && walk(t.List...)
	case *sqlparse.BetweenNode:
		return walk(t.E, t.Lo, t.Hi)
	case *sqlparse.IsNullNode:
		return walk(t.E)
	case *sqlparse.CaseNode:
		for _, w := range t.Whens {
			if !walk(w.Cond, w.Result) {
				return false
			}
		}
		return walk(t.Else)
	case *sqlparse.AggNode:
		return walk(t.Arg)
	case *sqlparse.FuncNode:
		return walk(t.Args...)
	case *sqlparse.ExistsNode:
		return !into || walkSelect(t.Sub, fn)
	default:
		return false
	}
	return true
}

// walkSelect calls fn for every column reference a subquery makes.
func walkSelect(sel *sqlparse.Select, fn func(*sqlparse.ColNode)) bool {
	ns := []sqlparse.Node{sel.Where, sel.Having}
	for _, item := range sel.Items {
		ns = append(ns, item.Expr)
	}
	ns = append(ns, sel.GroupBy...)
	for _, o := range sel.OrderBy {
		ns = append(ns, o.Expr)
	}
	for _, ref := range sel.From {
		for _, j := range ref.Joins {
			ns = append(ns, j.On)
		}
	}
	for _, n := range ns {
		if n != nil && !walkCols(n, true, fn) {
			return false
		}
	}
	return true
}
