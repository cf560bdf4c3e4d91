package main

import (
	"errors"
	"fmt"
	"time"

	"sqlprogress"
	"sqlprogress/internal/schema"
)

// fingerprint is a result's row count plus an order-insensitive checksum:
// the sum of one FNV-1a hash per row over its cells' text.
type fingerprint struct {
	rows int
	sum  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashCells(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0x1f // cell separator
	return h * fnvPrime
}

func fingerprintRows(rows []schema.Row) fingerprint {
	f := fingerprint{rows: len(rows)}
	for _, r := range rows {
		h := uint64(fnvOffset)
		for _, v := range r {
			h = hashCells(h, v.String())
		}
		f.sum += h
	}
	return f
}

// fingerprintText is fingerprintRows over cells the server already
// rendered as text.
func fingerprintText(rows [][]string) fingerprint {
	f := fingerprint{rows: len(rows)}
	for _, r := range rows {
		h := uint64(fnvOffset)
		for _, c := range r {
			h = hashCells(h, c)
		}
		f.sum += h
	}
	return f
}

// references runs every distinct query once through plain Run.
func references(db *sqlprogress.DB, qs []query) ([]fingerprint, error) {
	refs := make([]fingerprint, len(qs))
	for i, q := range qs {
		pq, err := q.build(db)
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", q, err)
		}
		res, err := pq.Run()
		if err != nil {
			return nil, fmt.Errorf("reference %v: %w", q, err)
		}
		refs[i] = fingerprintRows(res.Rows)
	}
	return refs, nil
}

var errShed = errors.New("shed: server answered 503")

// outcome is one query of a timed phase, as the client saw it.
type outcome struct {
	q   int // index into the workload's distinct queries
	lat time.Duration
	err error
	got fingerprint

	done time.Duration // completion, since the phase started

	// Served workloads only.
	shed          bool
	state         string
	finalEstimate float64
	doneRows      int
	events        int
	sseBytes      int
	submit        time.Duration
	queue, run    time.Duration
	serverTime    time.Duration // session Finished − Created
}

// check decides whether o is a correct answer to reference ref. A served
// query must also have finished with final_estimate 1 and the reference
// row count in its done frame.
func (o *outcome) check(ref fingerprint, served bool) error {
	if o.err != nil {
		return o.err
	}
	if served {
		if o.state != "finished" {
			return fmt.Errorf("done frame state %q", o.state)
		}
		if o.finalEstimate != 1 {
			return fmt.Errorf("done frame final_estimate %v, want 1", o.finalEstimate)
		}
		if o.doneRows != ref.rows {
			return fmt.Errorf("done frame row_count %d, want %d", o.doneRows, ref.rows)
		}
	}
	if o.got != ref {
		return fmt.Errorf("result %d rows sum %x, want %d rows sum %x", o.got.rows, o.got.sum, ref.rows, ref.sum)
	}
	return nil
}
