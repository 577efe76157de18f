package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"
)

// shutdownGrace bounds how long Serve waits for in-flight HTTP responses
// once its context is canceled.
const shutdownGrace = 5 * time.Second

// HTTP connection timeouts. A client that has not finished its request
// headers within readHeaderTimeout is disconnected instead of holding a
// server goroutine forever, and a keep-alive connection idle for
// idleTimeout is closed. There is deliberately no write timeout: a
// ?watch=1 progress stream stays open for as long as its job runs.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Server is one daemon instance: a scheduler plus its HTTP surface. Build
// it with New, then either mount Handler on an existing mux (tests use
// httptest.NewServer) or run it as a process with ListenAndServe.
type Server struct {
	cfg     Config
	sched   *Scheduler
	worker  *Worker // non-nil only for RoleWorker
	handler http.Handler

	mu   sync.Mutex
	addr string
}

// New builds a server from the configuration. The scheduler starts
// immediately; Close (or ListenAndServe's return) releases it. The only
// failure modes are an unusable Config.CacheDir and an invalid fleet
// configuration.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:8080"
	}
	sched, err := NewScheduler(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, sched: sched}
	if cfg.Role == RoleWorker {
		if cfg.Join == "" {
			sched.Close()
			return nil, errors.New("service: role worker requires Join (the coordinator URL)")
		}
		s.worker = newWorker(sched)
	}
	s.handler = s.routes()
	return s, nil
}

// Worker returns the node's claim loop when running as RoleWorker, nil
// otherwise.
func (s *Server) Worker() *Worker { return s.worker }

// Handler returns the daemon's HTTP surface, for embedding or tests.
func (s *Server) Handler() http.Handler { return s.handler }

// Scheduler exposes the underlying scheduler, for embedders that submit
// work in-process.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Addr returns the bound listen address once Listen has succeeded (""
// before). With a ":0" configuration this is where the kernel actually put
// the daemon.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Listen binds the configured address and records the resolved one.
func (s *Server) Listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.addr = ln.Addr().String()
	s.mu.Unlock()
	return ln, nil
}

// Serve runs the HTTP server on ln until ctx is canceled, then shuts down
// gracefully: close the scheduler first (canceling in-flight jobs, so
// active watch streams observe terminal states and drain), then stop
// accepting and wait up to shutdownGrace for responses to finish. It
// returns nil on a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	httpSrv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		s.sched.Close()
		return err
	case <-ctx.Done():
	}
	// Scheduler first: a ?watch=1 stream on an in-flight job only ends
	// when the job does, so canceling jobs before Shutdown is what lets
	// Shutdown's drain actually complete instead of burning the grace.
	s.sched.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := s.Listen()
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Close releases the scheduler without having served; Serve callers do not
// need it.
func (s *Server) Close() { s.sched.Close() }
