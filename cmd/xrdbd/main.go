// Command xrdbd serves a durable XML store over the network: an
// HTTP/JSON API and an optional length-prefixed line protocol over the
// same handler core, with per-session pinned snapshots, governor-backed
// overload responses (429) and graceful shutdown that drains in-flight
// requests, releases every snapshot pin and closes the store exactly
// once.
//
//	xrdbd -data ./data -scheme interval -listen :8080
//	curl -s localhost:8080/health
//	curl -s -d '{"xpath":"/site//item"}' localhost:8080/query
//	curl -s -d '{"sql":"INSERT INTO accel VALUES (...)"}' localhost:8080/exec
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	var (
		dataDir    = flag.String("data", "", "durable data directory (WAL + checkpoints, crash recovery) — required")
		scheme     = flag.String("scheme", "interval", "mapping scheme: interval|dewey (stateless schemes only)")
		in         = flag.String("in", "", "XML document to load when the data directory is fresh")
		listen     = flag.String("listen", ":8080", "HTTP/JSON listen address")
		listenLine = flag.String("listen-line", "", "line-protocol listen address (empty = disabled)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request timeout when the client names none (0 = unbounded)")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "clamp on client-supplied request timeouts (0 = no clamp)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget for in-flight requests")
		authFile   = flag.String("auth-file", "", "bearer-token allow-list file, one token per line (empty = no auth)")
		maxSess    = flag.Int("max-sessions", 0, "concurrent session cap (0 = 1024)")
		valueIdx   = flag.Bool("value-index", false, "create content-value indexes")
		memBudget  = flag.Int64("mem-budget", 0, "engine memory budget in bytes (0 = unlimited)")
		queryMem   = flag.Int64("query-mem-limit", 0, "per-query tracked-memory limit in bytes (0 = unlimited)")
		maxConc    = flag.Int("max-concurrent", 0, "admission control: max queries executing at once (0 = unlimited)")
		maxQueue   = flag.Int("max-queue", 0, "admission control: queries allowed to wait when saturated; beyond fail 429")
		bufPool    = flag.Int("buffer-pool", 0, "cap resident 512-row heap pages; full pages beyond the cap spill to disk and page back in on demand (0 = unbounded)")
		stream     = flag.Bool("stream", false, "with -in: shred the initial document from a stream (bounded memory; per-batch durability instead of one crash-atomic load)")
	)
	flag.Parse()
	if err := run(serveConfig{
		dataDir: *dataDir, scheme: *scheme, in: *in,
		listen: *listen, listenLine: *listenLine,
		timeout: *timeout, maxTimeout: *maxTimeout, drain: *drain,
		authFile: *authFile, maxSess: *maxSess,
		opts: core.Options{
			WithValueIndex:       *valueIdx,
			MemoryBudget:         *memBudget,
			QueryMemoryLimit:     *queryMem,
			MaxConcurrentQueries: *maxConc,
			MaxQueuedQueries:     *maxQueue,
			BufferPoolPages:      *bufPool,
		},
		stream: *stream,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "xrdbd:", err)
		os.Exit(1)
	}
}

type serveConfig struct {
	dataDir, scheme, in string
	listen, listenLine  string
	timeout, maxTimeout time.Duration
	drain               time.Duration
	authFile            string
	maxSess             int
	stream              bool
	opts                core.Options
}

func run(cfg serveConfig) error {
	if cfg.dataDir == "" {
		return fmt.Errorf("-data is required (the WAL and checkpoints live there)")
	}
	kind := core.SchemeKind(cfg.scheme)

	var auth server.Authenticator
	var err error
	if cfg.authFile != "" {
		auth, err = server.LoadTokenFile(cfg.authFile)
		if err != nil {
			return err
		}
	}

	store, err := core.OpenDurable(kind, cfg.dataDir, cfg.opts)
	if err != nil {
		return err
	}
	if cfg.in != "" && !store.Loaded() {
		log.Printf("loading %s into fresh data directory %s", cfg.in, cfg.dataDir)
		if cfg.stream {
			f, err := os.Open(cfg.in)
			if err != nil {
				store.Close()
				return err
			}
			err = store.LoadXMLStream(context.Background(), f)
			f.Close()
			if err != nil {
				store.Close()
				return err
			}
		} else {
			src, err := os.ReadFile(cfg.in)
			if err != nil {
				store.Close()
				return err
			}
			if err := store.LoadXML(src); err != nil {
				store.Close()
				return err
			}
		}
	}

	srv := server.New(store, server.Config{
		DefaultTimeout: cfg.timeout,
		MaxTimeout:     cfg.maxTimeout,
		MaxSessions:    cfg.maxSess,
		Auth:           auth,
	})

	errc := make(chan error, 2)
	httpLn, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		srv.Close()
		return err
	}
	log.Printf("http/json on %s (scheme=%s data=%s)", httpLn.Addr(), kind, cfg.dataDir)
	go func() { errc <- srv.Serve(httpLn) }()

	if cfg.listenLine != "" {
		lineLn, err := net.Listen("tcp", cfg.listenLine)
		if err != nil {
			srv.Close()
			return err
		}
		log.Printf("line protocol on %s", lineLn.Addr())
		go func() { errc <- srv.ServeLine(lineLn) }()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining (budget %s)", sig, cfg.drain)
		ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		log.Printf("shutdown complete")
		return nil
	case err := <-errc:
		srv.Close()
		return err
	}
}
