package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"testing"

	"repro/internal/obs/promtext"
	"repro/internal/workload"
)

// discardWriter is a ResponseWriter that keeps nothing, so AllocsPerRun
// counts what the handler allocates and not what a recorder does. It notes
// the status and how often the handler asked for the header map.
type discardWriter struct {
	header      http.Header
	status      int
	headerCalls int
}

func (d *discardWriter) Header() http.Header {
	d.headerCalls++
	return d.header
}

func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}

func (d *discardWriter) Write(p []byte) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(p), nil
}

func (d *discardWriter) WriteString(s string) (int, error) {
	d.WriteHeader(http.StatusOK)
	return len(s), nil
}

// TestStoreHandlerAllocs pins what a store request that creates no
// collection allocates in the handler: at most 3 objects, a range scan of
// 16 windows included, whether its series exists or not. Decoding the query
// builds no url.Values and a reply touches no header map, so net/http
// sniffs the content type and clones no headers.
func TestStoreHandlerAllocs(t *testing.T) {
	svc, err := New(testConfig(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Engine().Close()
	h := svc.Handler()
	// Create every key the table reads first; a drop or a scan of a missing
	// key creates nothing either.
	for _, u := range []string{"/set/add?key=k&m=7", "/kv/put?k=424242&v=1", "/range/add?series=s&t=0&cnt=64"} {
		h.ServeHTTP(&discardWriter{header: http.Header{}}, httptest.NewRequest(http.MethodGet, u, nil))
	}
	// The kv store is keyed by bucket number, so a request on an existing
	// bucket builds no bucket name: a put allocates nothing, and a hit only
	// the reply buffer it hands the writer.
	for _, c := range []struct {
		u         string
		maxAllocs float64
	}{
		{"/set/add?key=k&m=7&cnt=4", 3},
		{"/set/has?key=k&m=7", 3},
		{"/set/rem?key=k&m=8", 3},
		{"/set/drop?key=gone", 3},
		{"/kv/put?k=424242&v=99", 0},
		{"/kv/get?k=424242", 1},
		{"/kv/get?k=424243", 0},
		{"/range/add?series=s&t=0&cnt=16", 3},
		{"/range/scan?series=s&from=0&to=1000&cnt=16", 3},
		{"/range/scan?series=gone&from=0&to=1000&cnt=16", 3},
		{"/range/drop?series=gone", 3},
		{"/healthz", 3},
	} {
		u := c.u
		req := httptest.NewRequest(http.MethodGet, u, nil)
		w := &discardWriter{header: http.Header{}}
		allocs := testing.AllocsPerRun(200, func() {
			w.status = 0
			h.ServeHTTP(w, req)
		})
		t.Logf("%-46s %5.1f allocs", u, allocs)
		if w.status != http.StatusOK {
			t.Errorf("%s answered %d", u, w.status)
		}
		if w.headerCalls != 0 {
			t.Errorf("%s asked for the header map %d times", u, w.headerCalls)
		}
		if allocs > c.maxAllocs {
			t.Errorf("%s allocates %.1f objects, want at most %g", u, allocs, c.maxAllocs)
		}
	}
}

// FuzzQueryGet checks queryGet against the url.Values it replaces: for any
// raw query and name it returns what url.ParseQuery(raw).Get(name) returns.
func FuzzQueryGet(f *testing.F) {
	for _, seed := range []struct{ raw, name string }{
		{"key=k1&m=7&cnt=4", "m"},
		{"m=1&m=2", "m"},
		{"k%65y=v", "key"},
		{"key=a+b", "key"},
		{"key=%zz&key=ok", "key"},
		{"key=x;y&key=ok", "key"},
		{";", ""},
		{"&&key=&&key=v&", "key"},
		{"key=1=2", "key"},
		{"key", "key"},
		{"=v", ""},
		{"a%20b=c%2", "a b"},
	} {
		f.Add(seed.raw, seed.name)
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		want, _ := url.ParseQuery(raw)
		if got := queryGet(raw, name); got != want.Get(name) {
			t.Fatalf("queryGet(%q, %q) = %q, url.ParseQuery gives %q", raw, name, got, want.Get(name))
		}
	})
}

// TestMalformedRequestsCountOnlyAsBad sends one malformed request to every
// store route. Each must answer 400 and count only as a bad request: a
// handler validates all its parameters before it counts the operation.
func TestMalformedRequestsCountOnlyAsBad(t *testing.T) {
	malformed := map[string]string{
		"/set/add":    "key=k",
		"/set/has":    "m=1",
		"/set/rem":    "key=k",
		"/set/drop":   "",
		"/kv/put":     "k=1",
		"/kv/get":     "k=x",
		"/range/add":  "series=s",
		"/range/scan": "series=s&from=0",
		"/range/drop": "",
	}
	svc, err := New(testConfig(t))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Engine().Close()
	h := svc.Handler()
	for _, rt := range storeRoutes {
		raw, ok := malformed[rt.path]
		if !ok {
			t.Fatalf("no malformed request for %s", rt.path)
		}
		req := httptest.NewRequest(http.MethodGet, rt.path, nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s?%s answered %d, want 400", rt.path, raw, rec.Code)
		}
	}
	if n := svc.RequestsTotal(); n != 0 {
		t.Errorf("RequestsTotal = %d after only malformed requests, want 0", n)
	}
	var buf bytes.Buffer
	if _, err := svc.Registry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(&buf)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	value := map[string]float64{}
	for _, f := range fams {
		if len(f.Samples) == 1 {
			value[f.Name] = f.Samples[0].Value
		}
	}
	for op := workload.ServiceOp(0); op < workload.NumServiceOps; op++ {
		name := "collserve_" + op.String() + "_total"
		if v, ok := value[name]; !ok || v != 0 {
			t.Errorf("%s = %v (present %v), want 0", name, v, ok)
		}
	}
	if v := value["collserve_bad_requests_total"]; v != float64(len(malformed)) {
		t.Errorf("collserve_bad_requests_total = %v, want %d", v, len(malformed))
	}
}

// storeRoutes lists the store endpoints with the grammar of their 200
// bodies.
var storeRoutes = []struct {
	path    string
	grammar *regexp.Regexp
}{
	{"/set/add", boolReply},
	{"/set/has", boolReply},
	{"/set/rem", boolReply},
	{"/set/drop", boolReply},
	{"/kv/put", boolReply},
	{"/kv/get", regexp.MustCompile(`^(-?[0-9]+|miss)\n$`)},
	{"/range/add", boolReply},
	{"/range/scan", regexp.MustCompile(`^[0-9]+ -?[0-9]+ sorted=(true|false)\n$`)},
	{"/range/drop", boolReply},
}

var boolReply = regexp.MustCompile(`^[01]\n$`)

// FuzzServiceHandlers sends a fuzzed raw query to a fuzzed store route of
// one manual-engine service. The handler must not panic, must answer 200 or
// 400, and every 200 body must match its route's grammar.
func FuzzServiceHandlers(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		raw   string
	}{
		{0, "key=k1&m=7&cnt=4"},
		{1, "key=k1&m=7"},
		{2, "key=k1&m=7"},
		{3, "key=a%20b"},
		{4, "k=42&v=-99"},
		{5, "k=42"},
		{5, "k=%34%32"},
		{6, "series=s1&t=10&cnt=64"},
		{7, "series=s1&from=0&to=3000&cnt=16"},
		{7, "series=s1&from=-9223372036854775808&to=9223372036854775807&cnt=2"},
		{8, "series=s1"},
		{1, "key=x;y&m=1"},
		{0, "key=k&m=%zz"},
		{4, "k=1&v=9223372036854775808"},
	} {
		f.Add(seed.route, seed.raw)
	}
	svc, err := New(testConfig(nil))
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(func() { svc.Engine().Close() })
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, route uint8, raw string) {
		rt := storeRoutes[int(route)%len(storeRoutes)]
		req := httptest.NewRequest(http.MethodGet, rt.path, nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			if body := rec.Body.String(); !rt.grammar.MatchString(body) {
				t.Fatalf("%s?%s answered %q", rt.path, raw, body)
			}
		default:
			t.Fatalf("%s?%s answered %d", rt.path, raw, rec.Code)
		}
	})
}
