package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	hypermis "repro"
	"repro/internal/hgio"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func instanceText(t *testing.T, h *hypermis.Hypergraph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := hgio.WriteText(&buf, h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSolve(t *testing.T, ts *httptest.Server, query string, body []byte, contentType string) (*SolveResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/solve?"+query, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("solve status %d: %s", resp.StatusCode, raw)
	}
	var sr SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return &sr, resp
}

func TestHTTPSolveTextAndBinary(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	h := hypermis.RandomMixed(1, 200, 400, 2, 5)

	sr, _ := postSolve(t, ts, "algo=sbl&seed=3", instanceText(t, h), ContentTypeText)
	if sr.Algorithm != "sbl" || sr.N != 200 || sr.Cached {
		t.Fatalf("unexpected response %+v", sr)
	}
	mask := hypermis.MaskFromList(h.N(), intsToV(sr.MIS))
	if err := hypermis.VerifyMIS(h, mask); err != nil {
		t.Fatalf("served MIS invalid: %v", err)
	}

	// The same instance in binary form must hit the cache entry created
	// by the text request — the digest is format-independent.
	var bin bytes.Buffer
	if err := hgio.WriteBinary(&bin, h); err != nil {
		t.Fatal(err)
	}
	sr2, _ := postSolve(t, ts, "algo=sbl&seed=3", bin.Bytes(), ContentTypeBinary)
	if !sr2.Cached {
		t.Fatal("binary re-request missed the cache")
	}
	if sr2.Size != sr.Size {
		t.Fatalf("cached size %d != original %d", sr2.Size, sr.Size)
	}
}

func intsToV(xs []int) []hypermis.V {
	vs := make([]hypermis.V, len(xs))
	for i, x := range xs {
		vs[i] = hypermis.V(x)
	}
	return vs
}

func TestHTTPSolveTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	h := hypermis.RandomMixed(6, 300, 600, 2, 8)
	body := instanceText(t, h)

	plain, _ := postSolve(t, ts, "algo=kuw&seed=3", body, ContentTypeText)
	if len(plain.Trace) != 0 {
		t.Fatalf("traceless solve returned %d trace records", len(plain.Trace))
	}
	traced, _ := postSolve(t, ts, "algo=kuw&seed=3&trace=1", body, ContentTypeText)
	if traced.Cached {
		t.Fatal("trace request served from the traceless cache entry")
	}
	if len(traced.Trace) != traced.Rounds || traced.Rounds == 0 {
		t.Fatalf("trace has %d records for %d rounds", len(traced.Trace), traced.Rounds)
	}
	for i, r := range traced.Trace {
		if r.Round != i || r.N <= 0 {
			t.Fatalf("trace[%d] = %+v", i, r)
		}
	}
	if traced.Size != plain.Size {
		t.Fatalf("trace changed the MIS: size %d vs %d", traced.Size, plain.Size)
	}
	// Same-options trace requests hit their own cache entry, trace intact.
	again, _ := postSolve(t, ts, "algo=kuw&seed=3&trace=1", body, ContentTypeText)
	if !again.Cached || len(again.Trace) != len(traced.Trace) {
		t.Fatalf("cached trace solve: cached=%v records=%d", again.Cached, len(again.Trace))
	}

	// Aggregate round counters surfaced in stats.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.SolverRounds <= 0 || st.SolverRoundDecided <= 0 {
		t.Fatalf("stats rounds=%d decided=%d, want > 0", st.SolverRounds, st.SolverRoundDecided)
	}
}

func TestHTTPSolveDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	h := hypermis.RandomMixed(2, 150, 300, 2, 4)
	a, _ := postSolve(t, ts, "algo=permbl&seed=9", instanceText(t, h), ContentTypeText)
	b, _ := postSolve(t, ts, "algo=permbl&seed=9", instanceText(t, h), ContentTypeText)
	if a.Cached || b.Cached {
		t.Fatal("cache disabled yet a hit was reported")
	}
	if fmt.Sprint(a.MIS) != fmt.Sprint(b.MIS) {
		t.Fatal("equal (instance, seed) produced different MISs")
	}
}

func TestHTTPSolveErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	post := func(query, body, ct string) int {
		resp, err := http.Post(ts.URL+"/v1/solve?"+query, ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("algo=nope", "hypergraph 1 0\n", ContentTypeText); got != http.StatusBadRequest {
		t.Fatalf("bad algo: %d", got)
	}
	if got := post("", "garbage", ContentTypeText); got != http.StatusBadRequest {
		t.Fatalf("bad body: %d", got)
	}
	if got := post("seed=-1", "hypergraph 1 0\n", ContentTypeText); got != http.StatusBadRequest {
		t.Fatalf("bad seed: %d", got)
	}
	// Luby on a dim-3 instance is a client error, not a server fault.
	if got := post("algo=luby", "hypergraph 3 1\n0 1 2\n", ContentTypeText); got != http.StatusUnprocessableEntity {
		t.Fatalf("dimension violation: %d", got)
	}
	if got := post("", "hypergraph 1 0\n", "method"); got != http.StatusOK {
		t.Fatalf("unknown content type should default to text: %d", got)
	}
	// A few bytes declaring billions of vertices must be rejected at the
	// boundary, not allocated (memory-exhaustion guard) — on both the
	// solve and verify routes.
	huge := "hypergraph 9000000000 0\n"
	if got := post("", huge, ContentTypeText); got != http.StatusBadRequest {
		t.Fatalf("huge-n solve: %d, want 400", got)
	}
	vresp, err := http.Post(ts.URL+"/v1/verify", ContentTypeText, strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge-n verify: %d, want 400", vresp.StatusCode)
	}
	// A vertex id of 2^32+1 is out of range for n=5; it must be refused,
	// not narrowed to vertex 1 and solved, in either format.
	if got := post("", "hypergraph 5 1\n4294967297 2\n", ContentTypeText); got != http.StatusBadRequest {
		t.Fatalf("aliasing text id: %d, want 400", got)
	}
	bin := []byte("HGB1")
	for _, u := range []uint64{5, 1, 2, 1<<32 + 1, 1} { // n, m, edge size, first id, gap
		bin = binary.AppendUvarint(bin, u)
	}
	if got := post("", string(bin), ContentTypeBinary); got != http.StatusBadRequest {
		t.Fatalf("aliasing binary id: %d, want 400", got)
	}
}

func TestHTTPJobTimeoutIs504(t *testing.T) {
	// The server-imposed per-job deadline is a retryable server
	// condition, not a malformed request: 504, not 422.
	_, ts := newTestServer(t, Config{Workers: 1, JobTimeout: time.Nanosecond, CacheSize: -1})
	h := hypermis.RandomMixed(8, 2000, 4000, 2, 8)
	resp, err := http.Post(ts.URL+"/v1/solve?algo=sbl", ContentTypeText, bytes.NewReader(instanceText(t, h)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, raw)
	}
}

func TestHTTPGenerateSolveVerifyRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, err := http.Post(ts.URL+"/v1/generate?kind=mixed&n=120&m=240&min=2&max=5&seed=17", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeText {
		t.Fatalf("generate content type %q", ct)
	}
	digest := resp.Header.Get("X-Instance-Digest")
	h, err := hgio.ReadText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("generated instance unreadable: %v", err)
	}
	if hgio.Digest(h) != digest {
		t.Fatal("advertised digest does not match the payload")
	}
	// Generation is deterministic: same query, same digest.
	resp2, err := http.Post(ts.URL+"/v1/generate?kind=mixed&n=120&m=240&min=2&max=5&seed=17", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if d2 := resp2.Header.Get("X-Instance-Digest"); d2 != digest {
		t.Fatalf("generate not deterministic: %s vs %s", d2, digest)
	}

	sr, _ := postSolve(t, ts, "algo=auto&seed=1", body, ContentTypeText)

	ids := make([]string, len(sr.MIS))
	for i, v := range sr.MIS {
		ids[i] = strconv.Itoa(v)
	}
	vresp, err := http.Post(ts.URL+"/v1/verify?mis="+strings.Join(ids, ","), ContentTypeText, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var vr VerifyResponse
	if err := json.NewDecoder(vresp.Body).Decode(&vr); err != nil {
		t.Fatal(err)
	}
	vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK || !vr.OK || vr.Size != sr.Size {
		t.Fatalf("verify: status %d, %+v", vresp.StatusCode, vr)
	}

	// The empty set is not maximal (every vertex could join): 422.
	vresp2, err := http.Post(ts.URL+"/v1/verify", ContentTypeText, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, vresp2.Body)
	vresp2.Body.Close()
	if vresp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty-set verify status %d, want 422", vresp2.StatusCode)
	}
}

func TestHTTPGenerateRejectsBadParams(t *testing.T) {
	// Parameter combinations the generators panic on must come back as
	// 400s, and oversized work demands are refused by the serving caps.
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct{ name, query string }{
		{"sunflower needs more vertices than n", "kind=sunflower"}, // defaults: 2+2000·3 > 1000
		{"mixed max over n", "kind=mixed&n=3&m=1"},                 // default max 6 > 3
		{"uniform d zero", "kind=uniform&d=0"},
		{"uniform d over n", "kind=uniform&n=5&m=1&d=10"},
		{"unknown kind", "kind=mixd"},
		{"absurd n", "n=999999999"},
		{"edge size over cap", "kind=uniform&n=100000&m=10&d=4000"},
		{"work cap", "kind=uniform&n=4000000&m=4000000&d=64"},
		{"linear m cap", "kind=linear&n=100000&m=50000&d=3"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/generate?"+tc.query, "", nil)
		if err != nil {
			t.Fatalf("%s: transport error %v (handler panicked?)", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

func TestHTTPGenerateBinaryFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/generate?kind=graph&n=50&m=100&seed=2&format=bin", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("content type %q", ct)
	}
	h, err := hgio.ReadBinary(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 50 || h.Dim() > 2 {
		t.Fatalf("n=%d dim=%d", h.N(), h.Dim())
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	h := hypermis.RandomGraph(4, 80, 160)
	postSolve(t, ts, "seed=1", instanceText(t, h), ContentTypeText)
	postSolve(t, ts, "seed=1", instanceText(t, h), ContentTypeText) // cache hit

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Solves != 1 || st.CacheHits != 1 || st.Workers != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.LatencyP50Ms <= 0 || st.LatencyP99Ms < st.LatencyP50Ms {
		t.Fatalf("latency quantiles implausible: %+v", st)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || strings.TrimSpace(string(hbody)) != "ok" {
		t.Fatalf("healthz: %d %q", hresp.StatusCode, hbody)
	}

	// Unknown routes 404; GET on a POST route 405.
	if r, _ := http.Get(ts.URL + "/v1/nope"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route: %d", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/v1/solve"); r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET solve: %d", r.StatusCode)
	}
}
