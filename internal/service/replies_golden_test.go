package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRequests is the adaptive service's request table, sent in order to
// one fresh service: every store route with good parameters, each kind of
// bad request, and the query forms a decoder must get right (escaped keys
// and names, repeated keys, pairs with ';' or a bad escape, empty pairs, a
// value holding '='). Later rows read what earlier rows stored.
var goldenRequests = []string{
	"/set/add?key=k1&m=7",
	"/set/add?key=k1&m=7",
	"/set/has?key=k1&m=7",
	"/set/has?key=k1&m=8",
	"/set/add?key=k1&m=100&cnt=3",
	"/set/has?key=k1&m=1097",
	"/set/add?key=a%20b&m=1",
	"/set/has?key=a+b&m=1",
	"/set/has?k%65y=a%20b&m=1",
	"/set/has?key=k1&m=7&m=8",
	"/set/has?key=k1&m=8&m=7",
	"/set/has?key=x;y&key=k1&m=7",
	"/set/has?key=k1&m=7;8",
	"/set/has?key=k1;&m=7",
	"/set/has?key=%zz&key=k1&m=7",
	"/set/has?key=k1&m=%zz&m=7",
	"/set/has?&&key=k1&&m=7&",
	"/set/has?key=k1&m=1=2",
	"/set/has?key&key=k1&m=7",
	"/set/has?key=&m=1",
	"/set/has?m=1",
	"/set/has?key=k1",
	"/set/has?key=k1&m=",
	"/set/has?key=k1&m=9223372036854775808",
	"/set/has?key=k1&m=+7",
	"/set/has?key=k1&m=%2B7",
	"/set/has?key=k1&m=-3",
	"/set/add?key=k1&m=5&cnt=0",
	"/set/add?key=k1&m=6&cnt=abc",
	"/set/add?key=k1&m=-4&cnt=-2",
	"/set/add?key=k1&m=50000&cnt=1000",
	"/set/has?key=k1&m=112801",
	"/set/add?key=k1&m=x",
	"/set/add?m=1",
	"/set/rem?key=k1&m=7",
	"/set/rem?key=k1&m=7",
	"/set/rem?key=k1",
	"/set/rem?m=7",
	"/set/rem?key=fresh&m=1",
	"/set/drop?key=a+b",
	"/set/drop?key=a%20b",
	"/set/drop?key=;",
	"/set/drop",
	"/kv/put?k=42&v=99",
	"/kv/put?k=42&v=100",
	"/kv/get?k=42",
	"/kv/get?k=43",
	"/kv/put?k=-5&v=-7",
	"/kv/get?k=-5",
	"/kv/put?k=0&v=12345678901",
	"/kv/get?k=0",
	"/kv/get?k=9223372036854775807",
	"/kv/get?k=%34%32",
	"/kv/put?k=1",
	"/kv/put?k=1&v=one",
	"/kv/put?v=1",
	"/kv/get?k=abc",
	"/kv/get",
	"/range/add?series=s1&t=10&cnt=5",
	"/range/add?series=s1&t=10",
	"/range/scan?series=s1&from=0&to=2500",
	"/range/scan?series=s1&from=0&to=1000&cnt=4",
	"/range/scan?series=s1&from=0&to=1000&cnt=99",
	"/range/scan?series=s1&from=5&to=1&cnt=3",
	"/range/scan?series=s1&from=-9223372036854775808&to=9223372036854775807&cnt=2",
	"/range/scan?series=none&from=0&to=10",
	"/range/scan?series=s1&from=0",
	"/range/scan?series=s1&from=x&to=1",
	"/range/scan?from=0&to=1",
	"/range/add?series=a+b&t=1",
	"/range/scan?series=a%20b&from=0&to=1",
	"/range/add?series=s1",
	"/range/add?t=1",
	"/range/drop?series=s1",
	"/range/drop?series=s1",
	"/range/drop",
	"/healthz",
}

// goldenSortedRequests runs on a service pinned to sorted arrays: the first
// window of range series is monitored, and the series created after it are
// plain sorted arrays, so their scans answer through Range (sorted=true).
var goldenSortedRequests = func() []string {
	var reqs []string
	for i := 0; i < 14; i++ {
		reqs = append(reqs, "/range/add?series=w"+string(rune('a'+i))+"&t=0&cnt=3")
	}
	return append(reqs,
		"/range/scan?series=wa&from=0&to=3000",
		"/range/scan?series=wn&from=0&to=3000",
		"/range/scan?series=wn&from=0&to=1000&cnt=3",
		"/range/scan?series=wn&from=2000&to=0&cnt=2",
		"/range/add?series=wn&t=-50&cnt=2",
		"/range/scan?series=wn&from=-100&to=100",
	)
}()

// goldenReply is one request's answer as a client sees it on the wire:
// status, every header but Date, and the body bytes.
type goldenReply struct {
	Request string            `json:"request"`
	Status  int               `json:"status"`
	Header  map[string]string `json:"header"`
	Body    string            `json:"body"`
}

// goldenReplies sends reqs in order to a fresh service with cfg over a real
// loopback server and returns the answers.
func goldenReplies(t *testing.T, cfg Config, reqs []string) []goldenReply {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Engine().Close()
	ts := httptest.NewUnstartedServer(svc.Handler())
	// net/http logs every query holding ';'; the table sends several.
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	defer ts.Close()
	var out []goldenReply
	for _, req := range reqs {
		resp, err := ts.Client().Get(ts.URL + req)
		if err != nil {
			t.Fatalf("GET %s: %v", req, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read %s: %v", req, err)
		}
		h := map[string]string{}
		for name, vs := range resp.Header {
			if name != "Date" {
				h[name] = strings.Join(vs, ", ")
			}
		}
		out = append(out, goldenReply{Request: req, Status: resp.StatusCode, Header: h, Body: string(body)})
	}
	return out
}

// TestRepliesMatchParentGolden pins what a client sees of every store
// reply (status, header values and body bytes) for the request tables
// above to a golden file. Any change to how requests are decoded or replies
// written must leave these bytes alone. On a mismatch the test writes this
// tree's replies to a temporary file and names it; copy that over the golden
// only for an intended change to the replies.
func TestRepliesMatchParentGolden(t *testing.T) {
	sortedCfg := testConfig(t)
	sortedCfg.Fixed = "sortedarray"
	got, err := json.MarshalIndent(map[string][]goldenReply{
		"adaptive":    goldenReplies(t, testConfig(t), goldenRequests),
		"sortedarray": goldenReplies(t, sortedCfg, goldenSortedRequests),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join("testdata", "replies_golden.json"))
	if err != nil {
		t.Errorf("reading golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	if f, err := os.CreateTemp("", "replies_golden-*.json"); err == nil {
		_, err = f.Write(got)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			t.Errorf("this tree's replies are in %s", f.Name())
		}
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("replies diverge from the golden at line %d:\n got  %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("replies have %d lines, the golden %d", len(gl), len(wl))
}
