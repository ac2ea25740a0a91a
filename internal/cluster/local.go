package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/csrd-repro/datasync/internal/service"
)

// Local is an in-process cluster: N nodes serving on real loopback TCP
// ports, so peer traffic takes the same HTTP path production uses. The
// package tests and cmd/dsprobe boot their clusters through it. It lives in
// package cluster rather than a test-support package because the internal
// tests that drive it also read unexported node state; a separate package
// importing cluster could not be imported from those tests.
type Local struct {
	Members []Member
	Nodes   []*Node
	servers []*http.Server
}

// StartLocal listens on size ephemeral loopback ports and builds one node
// per port, named n0..n{size-1}, over opts and srvOpts (Self and Members are
// filled in; a nil Logger discards).
func StartLocal(size int, opts Options, srvOpts service.Options) (*Local, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	if opts.Logger == nil {
		opts.Logger = quiet
	}
	if srvOpts.Logger == nil {
		srvOpts.Logger = quiet
	}
	// Listeners first: addresses must be known before the membership is.
	l := &Local{servers: make([]*http.Server, size)}
	listeners := make([]net.Listener, 0, size)
	fail := func(err error) (*Local, error) {
		for _, ln := range listeners {
			ln.Close()
		}
		l.Stop(context.Background())
		return nil, err
	}
	for i := 0; i < size; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("cluster: listen: %w", err))
		}
		listeners = append(listeners, ln)
		l.Members = append(l.Members, Member{ID: fmt.Sprintf("n%d", i), Addr: "http://" + ln.Addr().String()})
	}
	for _, m := range l.Members {
		o := opts
		o.Self, o.Members = m.ID, l.Members
		node, err := New(o, srvOpts)
		if err != nil {
			return fail(fmt.Errorf("cluster: node %s: %w", m.ID, err))
		}
		l.Nodes = append(l.Nodes, node)
	}
	for i, ln := range listeners {
		l.serve(i, ln)
	}
	return l, nil
}

// Addr is node i's base URL.
func (l *Local) Addr(i int) string { return l.Members[i].Addr }

func (l *Local) serve(i int, ln net.Listener) {
	hs := &http.Server{Handler: l.Nodes[i].Handler()}
	go hs.Serve(ln)
	l.servers[i] = hs
}

// Kill hard-stops node i's HTTP server (listener and live connections).
// The node itself keeps running, as a crashed process's peers see it: its
// address refuses connections.
func (l *Local) Kill(i int) {
	if l.servers[i] != nil {
		l.servers[i].Close()
		l.servers[i] = nil
	}
}

// Restart serves a killed node i again on its original address — the
// in-process analogue of restarting a crashed dsserve on the same
// host:port. The rebind is retried for up to 5 s while the old socket is
// released.
func (l *Local) Restart(i int) error {
	hostport := strings.TrimPrefix(l.Members[i].Addr, "http://")
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", hostport)
		if err == nil {
			l.serve(i, ln)
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: rebind %s: %w", hostport, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Stop closes every HTTP server, then stops each node's background loops
// and drains its service server within ctx.
func (l *Local) Stop(ctx context.Context) {
	for i := range l.servers {
		l.Kill(i)
	}
	for _, n := range l.Nodes {
		n.Stop()
		n.Server().Drain(ctx)
	}
}

// SweepOracle evaluates req on a fresh single-node service server: the
// answer a cluster sweep must reproduce however its grid was split.
func SweepOracle(ctx context.Context, req service.SweepRequest) (*service.SweepResponse, error) {
	srv := service.NewServer(service.Options{Workers: 4, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Drain(context.Background())
	return srv.EvalSweep(ctx, req)
}

// SweepMismatch compares a cluster sweep with its oracle point for point
// and front for front, ignoring only cache provenance (which legitimately
// differs between a cluster and a cold single node). It returns "" when
// they agree and the first difference otherwise.
func SweepMismatch(got, oracle *service.SweepResponse) string {
	if got.Workload != oracle.Workload {
		return fmt.Sprintf("workload %q, oracle %q", got.Workload, oracle.Workload)
	}
	if len(got.Points) != len(oracle.Points) || len(got.Pareto) != len(oracle.Pareto) {
		return fmt.Sprintf("%d points / %d Pareto, oracle %d / %d",
			len(got.Points), len(got.Pareto), len(oracle.Points), len(oracle.Pareto))
	}
	for _, set := range []struct {
		name      string
		got, want []service.SweepPoint
	}{{"point", got.Points, oracle.Points}, {"Pareto point", got.Pareto, oracle.Pareto}} {
		for i, g := range set.got {
			w := set.want[i]
			g.Cached, w.Cached = false, false
			if g != w {
				return fmt.Sprintf("%s %d: oracle %+v vs cluster %+v", set.name, i, w, g)
			}
		}
	}
	return ""
}
