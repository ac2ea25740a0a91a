package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/csrd-repro/datasync/internal/cache"
	"github.com/csrd-repro/datasync/internal/codegen"
	"github.com/csrd-repro/datasync/internal/sim"
)

// MaxBody caps every request body the service and its cluster router read.
const MaxBody = 1 << 20

// errBodyTooLarge is the cause of a DecodeError for a body past MaxBody.
var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", MaxBody)

// DecodeError is a request body that could not be read or strictly
// decoded. Code is the status to answer: 413 for a body past MaxBody, 400
// for anything else.
type DecodeError struct {
	Code int
	Err  error
}

func (e *DecodeError) Error() string { return "decode request: " + e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// ReadBody reads a request body of at most MaxBody bytes. Its error is a
// *DecodeError.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	// Sized from Content-Length when it is declared, so a small body costs
	// one small allocation; io.ReadAll would start at 512 bytes.
	size := 512
	if cl := r.ContentLength; cl > 0 && cl <= MaxBody {
		size = int(cl) + 1 // room to read EOF without growing
	}
	b := make([]byte, 0, size)
	body := http.MaxBytesReader(w, r.Body, MaxBody)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return nil, &DecodeError{Code: http.StatusRequestEntityTooLarge, Err: errBodyTooLarge}
			}
			return nil, &DecodeError{Code: http.StatusBadRequest, Err: err}
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// DecodeStrict decodes the first JSON value of body into dst, rejecting
// unknown fields so a typo'd parameter fails loudly instead of silently
// taking a default. Every request decode in the service and the cluster
// router goes through it, so they agree on what a well-formed request is.
func DecodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// ParsedRequest is one /run, /verify or /compile request decoded, built and
// keyed — the work the cluster router needs for ownership and the handler
// needs for the cache, done once. The router stores it in the request
// context (WithParsed); the handler parses only when no router did.
type ParsedRequest struct {
	// Path is the route: "/run", "/verify" or "/compile".
	Path string
	// Body is the raw request body, for forwarding to the owning peer.
	Body []byte

	// The decoded request: the field matching Path is set.
	Run     RunRequest
	Verify  VerifyRequest
	Compile CompileRequest

	// Workload is the built workload (/run and /verify); Config the
	// resolved machine configuration (not yet checked).
	Workload *codegen.Workload
	Config   sim.Config
	// Key is the canonical content address, valid when Keyed.
	Key cache.Key

	// DecodeErr, a *DecodeError, means the body was unreadable, oversized
	// or not a strictly valid request; nothing else is set.
	DecodeErr error
	// KeyErr means the request decoded but names a workload or scheme that
	// does not build. The handler reports it after its own earlier checks.
	KeyErr error
}

// Keyed reports whether the request decoded and has a content address.
func (p *ParsedRequest) Keyed() bool { return p.DecodeErr == nil && p.KeyErr == nil }

// ParseRequest reads and strictly decodes the body of a /run, /verify or
// /compile request, builds its workload and computes its canonical key,
// exactly as RunKey, VerifyKey and CompileRequestKey do.
func ParseRequest(w http.ResponseWriter, r *http.Request) *ParsedRequest {
	p := &ParsedRequest{Path: r.URL.Path}
	body, err := ReadBody(w, r)
	if err != nil {
		p.DecodeErr = err
		return p
	}
	p.Body = body
	var dst any
	switch p.Path {
	case "/run":
		dst = &p.Run
	case "/verify":
		dst = &p.Verify
	case "/compile":
		dst = &p.Compile
	default:
		p.KeyErr = fmt.Errorf("service: %s is not a keyed route", p.Path)
		return p
	}
	if err := DecodeStrict(body, dst); err != nil {
		p.DecodeErr = &DecodeError{Code: http.StatusBadRequest, Err: err}
		return p
	}
	switch p.Path {
	case "/run":
		p.Config = p.Run.Config.SimConfig()
		p.Workload, p.Key, p.KeyErr = buildKey(p.Run.Workload, p.Run.Scheme, p.Config)
	case "/verify":
		p.Config = p.Verify.Config.SimConfig()
		p.Workload, p.Key, p.KeyErr = buildKey(p.Verify.Workload, p.Verify.Scheme, p.Config, verifyMode(&p.Verify))
	case "/compile":
		p.Config = p.Compile.Config.SimConfig()
		p.Key, p.KeyErr = compileKey(&p.Compile, p.Config)
	}
	return p
}

// ctxKeyParsed carries a router's ParsedRequest to the handler.
type ctxKeyParsed struct{}

// WithParsed returns r carrying p, so the handler serving r reuses the
// parse instead of reading a body that has already been consumed.
func WithParsed(r *http.Request, p *ParsedRequest) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), ctxKeyParsed{}, p))
}

// parsed returns the request's parse — the router's when one ran, else its
// own — and answers a body that did not decode.
func (s *Server) parsed(w http.ResponseWriter, r *http.Request) (*ParsedRequest, bool) {
	p, _ := r.Context().Value(ctxKeyParsed{}).(*ParsedRequest)
	if p == nil {
		p = ParseRequest(w, r)
	}
	if p.DecodeErr != nil {
		s.decodeError(w, p.DecodeErr)
		return nil, false
	}
	return p, true
}

// decode reads and strictly decodes a body that is not keyed (/sweep).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := ReadBody(w, r)
	if err == nil {
		if derr := DecodeStrict(body, dst); derr != nil {
			err = &DecodeError{Code: http.StatusBadRequest, Err: derr}
		}
	}
	if err != nil {
		s.decodeError(w, err)
		return false
	}
	return true
}

// decodeError answers a *DecodeError with its status.
func (s *Server) decodeError(w http.ResponseWriter, err error) {
	var de *DecodeError
	errors.As(err, &de)
	s.httpError(w, de.Code, err)
}

// ---- canonical content addresses ----
//
// These are the single source of request identity, shared by the handlers
// (cache addressing) and the cluster router (ownership): a request's canon
// key decides both where its result is cached and which node owns it, so
// the two can never disagree.

// buildKey builds a run-shaped request's workload and scheme and returns
// the workload and its address.
func buildKey(ws WorkloadSpec, ss SchemeSpec, cfg sim.Config, extra ...string) (*codegen.Workload, cache.Key, error) {
	wl, err := ws.Build()
	if err != nil {
		return nil, cache.Key{}, err
	}
	sch, err := ss.Build()
	if err != nil {
		return nil, cache.Key{}, err
	}
	return wl, cache.RequestKey(wl, sch.Name(), cfg, extra...), nil
}

// verifyMode is the verification-mode discriminator of a verify address.
func verifyMode(req *VerifyRequest) string {
	return "mode=verify dynamic=" + strconv.FormatBool(req.Dynamic) +
		" maxIters=" + strconv.FormatInt(req.MaxIters, 10)
}

func compileKey(req *CompileRequest, cfg sim.Config) (cache.Key, error) {
	filename := req.Filename
	if filename == "" {
		filename = "input.go"
	}
	names, err := compileSchemeNames(req.Schemes)
	if err != nil {
		return cache.Key{}, err
	}
	return cache.CompileKey(filename, []byte(req.Source), names, cfg), nil
}

// RunKey computes the canonical content address of a run request.
func RunKey(req RunRequest) (cache.Key, error) {
	_, k, err := buildKey(req.Workload, req.Scheme, req.Config.SimConfig())
	return k, err
}

// VerifyKey computes the canonical content address of a verify request: the
// run address extended with the verification-mode discriminator.
func VerifyKey(req VerifyRequest) (cache.Key, error) {
	_, k, err := buildKey(req.Workload, req.Scheme, req.Config.SimConfig(), verifyMode(&req))
	return k, err
}

// CompileRequestKey computes the canonical content address of a compile
// request (defaults applied, scheme selection canonicalized to built names).
func CompileRequestKey(req CompileRequest) (cache.Key, error) {
	return compileKey(&req, req.Config.SimConfig())
}
