package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// oversized is a syntactically valid /run body one byte past MaxBody once
// padded, so only the size can reject it.
func oversized() []byte {
	head := []byte(`{"workload":{"name":"fig21","source":"`)
	tail := []byte(`"},"scheme":{"name":"ref"}}`)
	pad := bytes.Repeat([]byte{' '}, MaxBody+1-len(head)-len(tail))
	return append(append(head, pad...), tail...)
}

// TestOversizedBody413: a body past MaxBody is refused with 413 on every
// decoding route of a bare server, before any decode is attempted.
func TestOversizedBody413(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, path := range []string{"/run", "/verify", "/compile", "/sweep"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(oversized()))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(out), "request body exceeds 1048576 bytes") {
			t.Errorf("%s: %d %s, want 413 body-too-large", path, resp.StatusCode, out)
		}
	}
	// Exactly MaxBody bytes is still decoded (and here rejected as JSON).
	body := oversized()[1:]
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("MaxBody-byte body: %d, want 400 from the decoder", resp.StatusCode)
	}
}

// TestRunResponseMatchesEncoder: the bytes a bare server sends for /run,
// uncached and cached, are json.Encoder's rendering of the same response.
func TestRunResponseMatchesEncoder(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	req := RunRequest{Workload: WorkloadSpec{Name: "nested", N: 12}, Scheme: SchemeSpec{Name: "process"}, Config: ConfigSpec{P: 3}}
	for _, wantCached := range []bool{false, true} {
		resp, body := post(t, ts, "/run", req)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("status %d, content type %q: %s", resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
		var rr RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Cached != wantCached {
			t.Fatalf("cached=%v, want %v", rr.Cached, wantCached)
		}
		if want := stdRunJSON(t, &rr); !bytes.Equal(body, want) {
			t.Fatalf("served bytes differ from json.Encoder\n got: %q\nwant: %q", body, want)
		}
	}
}

// TestHandlerReusesRouterParse: a handler given a router's parse in the
// context serves from it without reading the (already consumed) body, and
// answers exactly what a self-parsing handler answers.
func TestHandlerReusesRouterParse(t *testing.T) {
	s := NewServer(Options{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := s.Handler()
	body := `{"workload":{"name":"fig21","n":16},"scheme":{"name":"ref"},"config":{"p":2}}`

	direct := httptest.NewRecorder()
	h.ServeHTTP(direct, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))

	r := httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body))
	p := ParseRequest(httptest.NewRecorder(), r)
	if !p.Keyed() || string(p.Body) != body {
		t.Fatalf("parse: keyed=%v body=%q", p.Keyed(), p.Body)
	}
	want, err := RunKey(p.Run)
	if err != nil || want != p.Key {
		t.Fatalf("parse key %s, RunKey %s (%v)", p.Key, want, err)
	}
	r = WithParsed(r, p)
	r.Body = io.NopCloser(strings.NewReader("not json: the handler must not read this"))
	routed := httptest.NewRecorder()
	h.ServeHTTP(routed, r)
	if routed.Code != http.StatusOK {
		t.Fatalf("routed parse: %d %s", routed.Code, routed.Body)
	}
	// The first answer filled the cache; align the one field that differs.
	got := strings.Replace(direct.Body.String(), `"cached": false`, `"cached": true`, 1)
	if routed.Body.String() != got {
		t.Fatalf("routed answer differs from a self-parsed one:\n%s\nvs\n%s", routed.Body, got)
	}
}

// TestParseRequestErrors: decode failures carry their status, and build
// failures leave the request decoded but unkeyed.
func TestParseRequestErrors(t *testing.T) {
	parse := func(path, body string) *ParsedRequest {
		return ParseRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	}
	if p := parse("/run", `{"bogus":1}`); p.DecodeErr == nil || p.DecodeErr.(*DecodeError).Code != http.StatusBadRequest {
		t.Errorf("unknown field: %v", p.DecodeErr)
	}
	if p := parse("/run", `{"workload":{"name":"nope"},"scheme":{"name":"ref"}}`); p.DecodeErr != nil || p.KeyErr == nil || p.Keyed() {
		t.Errorf("unknown workload: decode %v key %v", p.DecodeErr, p.KeyErr)
	}
	if p := parse("/verify", `{"workload":{"name":"fig21"},"scheme":{"name":"x"}}`); p.KeyErr == nil {
		t.Error("unknown scheme keyed")
	}
	if p := parse("/compile", `{"source":"package p","schemes":[{"name":"x"}]}`); p.KeyErr == nil {
		t.Error("unknown compile scheme keyed")
	}
}

// TestJobLatencyLabelsBounded: executed jobs are labelled by scheme family,
// so sixty distinct client-chosen x values add no latency series.
func TestJobLatencyLabelsBounded(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 2})
	series := func() int {
		var buf bytes.Buffer
		s.metrics.Render(&buf, s.pool, s.cache.Snapshot(), Resilience{})
		return strings.Count(buf.String(), "dsserve_job_latency_seconds_count{")
	}
	for x := 1; x <= 60; x++ {
		resp, body := post(t, ts, "/run", RunRequest{
			Workload: WorkloadSpec{Name: "fig21", N: 8},
			Scheme:   SchemeSpec{Name: "process", X: x},
			Config:   ConfigSpec{P: 2},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("x=%d: %d %s", x, resp.StatusCode, body)
		}
		if x == 1 && series() != 1 {
			t.Fatalf("after one run: %d latency series, want 1", series())
		}
	}
	if n := series(); n != 1 {
		t.Errorf("60 distinct x values left %d latency series, want 1", n)
	}
	var buf bytes.Buffer
	s.metrics.Render(&buf, s.pool, s.cache.Snapshot(), Resilience{})
	if !strings.Contains(buf.String(), `dsserve_job_latency_seconds_count{scheme="process"} 60`) {
		t.Errorf("missing the process family's 60 jobs:\n%s", buf.String())
	}
}

// TestVerifyMaxItersBounded: a /verify window outside [0, MaxVerifyIters]
// is refused with 400 and a message naming the bound; the bound itself is
// accepted.
func TestVerifyMaxItersBounded(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, mx := range []int64{-1, MaxVerifyIters + 1, 1 << 40} {
		resp, body := post(t, ts, "/verify", VerifyRequest{
			Workload: WorkloadSpec{Name: "fig21", N: 8}, Scheme: SchemeSpec{Name: "ref"}, MaxIters: mx})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "maxIters must be between 0 and 1024") {
			t.Errorf("maxIters=%d: %d %s, want 400 naming the bound", mx, resp.StatusCode, body)
		}
	}
	resp, body := post(t, ts, "/verify", VerifyRequest{
		Workload: WorkloadSpec{Name: "fig21", N: 8}, Scheme: SchemeSpec{Name: "ref"}, MaxIters: MaxVerifyIters})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("maxIters=%d: %d %s, want 200", MaxVerifyIters, resp.StatusCode, body)
	}
}

// TestRequestRouteLabelsBounded: every path the mux does not serve counts
// under one route="other" series, while served routes keep their own.
func TestRequestRouteLabelsBounded(t *testing.T) {
	s, ts := testServer(t, Options{Workers: 1})
	for i := 0; i < 50; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/no-such-path-%d", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /no-such-path-%d: %d, want 404", i, resp.StatusCode)
		}
	}
	if resp, body := post(t, ts, "/run", RunRequest{Workload: WorkloadSpec{Name: "fig21", N: 8}, Scheme: SchemeSpec{Name: "ref"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: %d %s", resp.StatusCode, body)
	}
	var buf bytes.Buffer
	s.metrics.Render(&buf, s.pool, s.cache.Snapshot(), Resilience{})
	var lines []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "dsserve_requests_total{") {
			lines = append(lines, l)
		}
	}
	want := []string{
		`dsserve_requests_total{route="/run",code="200"} 1`,
		`dsserve_requests_total{route="other",code="404"} 50`,
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("request series:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}
