package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"sqlprogress"
)

// env is one round's system under test: a freshly generated database,
// spilled to disk for the paged workload, and for the served workloads a
// session server listening on loopback.
type env struct {
	db     *sqlprogress.DB
	dir    string
	srv    *sqlprogress.SessionServer
	hs     *http.Server
	served chan error
	client *http.Client
	base   string

	setup, generate, spill time.Duration
	// pages is each spilled table's data-page count.
	pages map[string]uint32
}

// newEnv performs set-up: data generation, index build, spill and server
// start, in that order. setup_s is the time of all of it.
func newEnv(w workload, cfg *config, withServer bool, tr *tracer) (*env, error) {
	e := &env{}
	start := time.Now()
	sp := tr.begin("tpch.generate", -1, -1)
	e.db = sqlprogress.OpenTPCH(cfg.sf, cfg.z, cfg.genSeed)
	tr.end(sp)
	e.generate = time.Since(start)

	// Building each plan once builds the hash indexes its INL joins probe
	// (the catalog caches them), so queries in the timed phase find them.
	sp = tr.begin("plan.index_build", -1, -1)
	for _, q := range w.queries {
		if q.plan > 0 {
			if _, err := q.operator(e.db.Catalog()); err != nil {
				return nil, fmt.Errorf("build %v: %w", q, err)
			}
		}
	}
	tr.end(sp)

	if w.paged {
		if err := e.spillAll(w, cfg, tr); err != nil {
			e.close()
			return nil, err
		}
	}
	if withServer {
		if err := e.startServer(cfg, tr); err != nil {
			e.close()
			return nil, err
		}
	}
	e.setup = time.Since(start)
	return e, nil
}

// spillAll writes every table to heap files and checks that the pool holds
// every table but lineitem at once, and not lineitem: small-table pages hit
// and lineitem scans keep missing.
func (e *env) spillAll(w workload, cfg *config, tr *tracer) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.out, "spill-")
	if err != nil {
		return err
	}
	e.dir = dir
	frames := cfg.framesFor(w)
	t := time.Now()
	sp := tr.begin("pager.spill", -1, -1)
	err = e.db.SpillToDisk(dir, frames)
	tr.end(sp)
	e.spill = time.Since(t)
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	e.pages = make(map[string]uint32)
	var others uint32
	for _, name := range e.db.Tables() {
		pr := e.db.Catalog().PagedRelation(name)
		if pr == nil {
			return fmt.Errorf("table %s was not spilled", name)
		}
		n := pr.HeapFile().DataPages()
		e.pages[name] = n
		if name != "lineitem" {
			others += n
		}
	}
	if li := e.pages["lineitem"]; uint32(frames) < others || uint32(frames) >= li {
		return fmt.Errorf("pool of %d frames must hold the %d pages of every table but lineitem and fewer than lineitem's %d",
			frames, others, li)
	}
	return nil
}

func (e *env) startServer(cfg *config, tr *tracer) error {
	sp := tr.begin("server.start", -1, -1)
	defer tr.end(sp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	e.srv = e.db.NewSessionServer(sqlprogress.ServeOptions{})
	var h http.Handler = e.srv
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	e.hs = &http.Server{Handler: h}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
	return nil
}

// stopServer stops the server and joins its goroutines; the sessions it
// kept become garbage.
func (e *env) stopServer() error {
	if e.srv == nil {
		return nil
	}
	errs := []error{e.srv.Close()}
	// Close the client's idle connections first: Shutdown waits five
	// seconds on a connection that was dialed but never carried a request.
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	errs = append(errs, e.hs.Shutdown(ctx))
	cancel()
	if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	e.srv, e.hs, e.client = nil, nil, nil
	return errors.Join(errs...)
}

// close stops the server, then removes the spill directory.
func (e *env) close() error {
	errs := []error{e.stopServer()}
	if e.dir != "" {
		errs = append(errs, os.RemoveAll(e.dir))
		e.dir = ""
	}
	return errors.Join(errs...)
}
