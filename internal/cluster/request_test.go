package cluster

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/csrd-repro/datasync/internal/service"
)

// oversizedRun is a well-formed /run body one byte past service.MaxBody.
func oversizedRun() []byte {
	head := []byte(`{"workload":{"name":"fig21","source":"`)
	tail := []byte(`"},"scheme":{"name":"ref"}}`)
	pad := bytes.Repeat([]byte{' '}, service.MaxBody+1-len(head)-len(tail))
	return append(append(head, pad...), tail...)
}

// TestClusterOversizedBody413: through a node's router an oversized body
// gets the same 413 answer a bare server gives — not a 400 from decoding a
// truncated replay — on the keyed routes and the sweep coordinator alike.
func TestClusterOversizedBody413(t *testing.T) {
	tc := startCluster(t, 2, Options{})
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	bare := service.NewServer(service.Options{Workers: 1, Logger: quiet})
	defer bare.Drain(context.Background())
	bareTS := httptest.NewServer(bare.Handler())
	defer bareTS.Close()

	send := func(url string) (int, string) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(oversizedRun()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	for _, path := range []string{"/run", "/verify", "/compile", "/sweep"} {
		wantCode, wantBody := send(bareTS.URL + path)
		if wantCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("bare %s: %d %s", path, wantCode, wantBody)
		}
		for _, m := range tc.Members {
			if code, body := send(m.Addr + path); code != wantCode || body != wantBody {
				t.Errorf("node %s%s: %d %s, want %d %s", m.Addr, path, code, body, wantCode, wantBody)
			}
		}
	}
	if fwd, _, _ := tc.Nodes[0].Counters(); fwd != 0 {
		t.Errorf("an oversized request was forwarded %d times", fwd)
	}
}

// TestClusterVerifyMaxItersBounded: a /verify window past the bound gets
// the bare server's 400 from every node of a two-node ring, whether the
// node owns the key or forwards it to the owner.
func TestClusterVerifyMaxItersBounded(t *testing.T) {
	tc := startCluster(t, 2, Options{})
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	bare := service.NewServer(service.Options{Workers: 1, Logger: quiet})
	defer bare.Drain(context.Background())
	bareTS := httptest.NewServer(bare.Handler())
	defer bareTS.Close()

	send := func(url string, body []byte) (int, string) {
		resp, err := http.Post(url+"/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	for _, mx := range []string{"-1", "1025"} {
		body := []byte(`{"workload":{"name":"fig21","n":8},"scheme":{"name":"ref"},"maxIters":` + mx + `}`)
		wantCode, wantBody := send(bareTS.URL, body)
		if wantCode != http.StatusBadRequest || !strings.Contains(wantBody, "maxIters must be between 0 and 1024") {
			t.Fatalf("bare maxIters=%s: %d %s", mx, wantCode, wantBody)
		}
		for _, m := range tc.Members {
			if code, got := send(m.Addr, body); code != wantCode || got != wantBody {
				t.Errorf("node %s maxIters=%s: %d %s, want %d %s", m.Addr, mx, code, got, wantCode, wantBody)
			}
		}
	}
}

// TestClusterRunBytesMatchBareServer: a /run through a single-member node
// answers the bytes a bare server answers, uncached and cached.
func TestClusterRunBytesMatchBareServer(t *testing.T) {
	tc := startCluster(t, 1, Options{})
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	bare := service.NewServer(service.Options{Workers: 1, Logger: quiet})
	defer bare.Drain(context.Background())
	bareTS := httptest.NewServer(bare.Handler())
	defer bareTS.Close()
	for i := 0; i < 2; i++ {
		_, want := postNode(t, bareTS.URL, "/run", testRunReq, nil)
		resp, got := postNode(t, tc.Addr(0), "/run", testRunReq, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("request %d: node answered %d\n%s\nbare server\n%s", i, resp.StatusCode, got, want)
		}
	}
}

// BenchmarkServeRunHit serves one cached /run hit end to end in process —
// bare service handler and a single-member node (router plus handler) —
// without a network hop, so the numbers are the request path's own cost.
func BenchmarkServeRunHit(b *testing.B) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	body := `{"workload":{"name":"nested","n":24},"scheme":{"name":"process","x":4},"config":{"p":8}}`
	bare := service.NewServer(service.Options{Workers: 1, Logger: quiet})
	defer bare.Drain(context.Background())
	node, err := New(Options{Self: "a", Logger: quiet}, service.Options{Workers: 1, Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Stop()
	for _, bc := range []struct {
		name string
		h    http.Handler
	}{{"bare", bare.Handler()}, {"node", node.Handler()}} {
		b.Run(bc.name, func(b *testing.B) {
			serve := func() *httptest.ResponseRecorder {
				w := httptest.NewRecorder()
				bc.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
				return w
			}
			if w := serve(); w.Code != http.StatusOK {
				b.Fatalf("fill: %d %s", w.Code, w.Body)
			}
			if w := serve(); !strings.Contains(w.Body.String(), `"cached": true`) {
				b.Fatalf("not a hit: %s", w.Body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	node.Server().Drain(ctx)
}
