package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
)

// errEmptyBody marks a response that carried a success status and no
// body — the server's failure mode when it cannot encode a result.
var errEmptyBody = errors.New("empty response body")

// tally counts one op kind's outcomes.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// recorder collects one client's measurements; clients never share one,
// and the run merges them after the clients stop.
type recorder struct {
	kinds    map[string]*tally
	known    map[string]*tally // ops that hit a known, named defect
	errs     []string          // the first few failure messages
	opMS     []float64
	kindMS   map[string][]float64
	uploadMS []float64
	placeMS  []float64
	sumK     float64
	placeSec float64
	queueMS  []float64
	runMS    []float64
	checks   []check
	lastJob  *server.JobInfo
}

func newRecorder() *recorder {
	return &recorder{kinds: map[string]*tally{}, known: map[string]*tally{}, kindMS: map[string][]float64{}}
}

// count records one op outcome under kind.
func (r *recorder) count(kind string, known bool, err error) {
	m := r.kinds
	if known {
		m = r.known
	}
	t := m[kind]
	if t == nil {
		t = &tally{}
		m[kind] = t
	}
	t.Attempted++
	if err != nil {
		t.Failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, kind+": "+err.Error())
		}
	}
}

func (r *recorder) merge(o *recorder) {
	for _, pair := range [][2]map[string]*tally{{r.kinds, o.kinds}, {r.known, o.known}} {
		for k, t := range pair[1] {
			d := pair[0][k]
			if d == nil {
				d = &tally{}
				pair[0][k] = d
			}
			d.Attempted += t.Attempted
			d.Failed += t.Failed
		}
	}
	r.errs = append(r.errs, o.errs...)
	r.opMS = append(r.opMS, o.opMS...)
	for k, xs := range o.kindMS {
		r.kindMS[k] = append(r.kindMS[k], xs...)
	}
	r.uploadMS = append(r.uploadMS, o.uploadMS...)
	r.placeMS = append(r.placeMS, o.placeMS...)
	r.sumK += o.sumK
	r.placeSec += o.placeSec
	r.queueMS = append(r.queueMS, o.queueMS...)
	r.runMS = append(r.runMS, o.runMS...)
	r.checks = append(r.checks, o.checks...)
	if o.lastJob != nil {
		r.lastJob = o.lastJob
	}
}

// totals sums attempted and failed over the counted (not known-defect)
// op kinds.
func (r *recorder) totals() (attempted, failed int) {
	for _, t := range r.kinds {
		attempted += t.Attempted
		failed += t.Failed
	}
	return attempted, failed
}

// client is one closed-loop connection to the server under test.
type client struct {
	base string
	hc   *http.Client
	srv  *server.Server
	tr   *tracer // nil when untraced
	op   int64   // span id of the op in progress
	rec  *recorder
}

func newClient(base string, srv *server.Server, tr *tracer) *client {
	// One connection per client, no proxy: every request goes straight to
	// the in-process server over loopback.
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tp}, srv: srv, tr: tr, rec: newRecorder()}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// send makes one request and returns its status and body; the error is
// set only when no response arrived.
func (c *client) send(kind, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	id := c.tr.newID()
	if c.tr != nil {
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		req.Header.Set(hdrOp, strconv.FormatInt(c.op, 10))
		req.Header.Set(hdrKind, kind)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.add(id, c.op, c.op, "http."+kind, start, time.Now())
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// decode parses a success response into out; a nil out only requires a
// body. An empty body is an error.
func decode(data []byte, out any) error {
	if len(bytes.TrimSpace(data)) == 0 {
		return errEmptyBody
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// call makes one request, checks its status and decodes the body into
// out; 204 responses carry no body.
func (c *client) call(kind, method, path string, body []byte, want int, out any) error {
	status, data, err := c.send(kind, method, path, body)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", method, path, status, want, data)
	}
	if want == http.StatusNoContent {
		return nil
	}
	if err := decode(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// place submits a placement. It returns the inline result of a 200 or
// the job of a 202; any other status fails.
func (c *client) place(graphID string, spec server.PlaceSpec) (*server.PlaceResult, *server.JobInfo, error) {
	reqBody, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	status, data, err := c.send("place", http.MethodPost, "/v1/graphs/"+graphID+"/place", reqBody)
	if err != nil {
		return nil, nil, err
	}
	switch status {
	case http.StatusOK:
		var res server.PlaceResult
		if err := decode(data, &res); err != nil {
			return nil, nil, fmt.Errorf("place: %w", err)
		}
		return &res, nil, nil
	case http.StatusAccepted:
		var job server.JobInfo
		if err := decode(data, &job); err != nil {
			return nil, nil, fmt.Errorf("place: %w", err)
		}
		return nil, &job, nil
	}
	return nil, nil, fmt.Errorf("place: status %d: %.200s", status, data)
}

// awaitJob blocks on the job engine until the job ends, then fetches the
// job over HTTP so its result is encoded and decoded like any client's.
func (c *client) awaitJob(id string) (*server.JobInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sid := c.tr.newID()
	start := time.Now()
	_, err := c.srv.Jobs().Wait(ctx, id)
	c.tr.add(sid, c.op, c.op, "wait", start, time.Now())
	if err != nil {
		return nil, fmt.Errorf("wait %s: %w", id, err)
	}
	var info server.JobInfo
	if err := c.call("job", http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK, &info); err != nil {
		return nil, err
	}
	if info.State != server.JobDone {
		return nil, fmt.Errorf("job %s ended %s: %s", id, info.State, info.Error)
	}
	if info.Started != nil && info.Finished != nil {
		c.rec.queueMS = append(c.rec.queueMS, ms(info.Started.Sub(info.Created)))
		c.rec.runMS = append(c.rec.runMS, ms(info.Finished.Sub(*info.Started)))
	}
	c.rec.lastJob = &info
	return &info, nil
}

// placeAndFetch runs one placement to its result: inline on 200, through
// the job on 202.
func (c *client) placeAndFetch(graphID string, spec server.PlaceSpec) (*server.PlaceResult, error) {
	res, job, err := c.place(graphID, spec)
	if err != nil || res != nil {
		return res, err
	}
	info, err := c.awaitJob(job.ID)
	if err != nil {
		return nil, err
	}
	if info.Result == nil {
		return nil, fmt.Errorf("job %s: no result", job.ID)
	}
	return info.Result, nil
}

// evaluate asks for the objective values of an explicit filter set.
func (c *client) evaluate(graphID string, filters []int) (*server.PlaceResult, error) {
	q := make([]string, len(filters))
	for j, v := range filters {
		q[j] = strconv.Itoa(v)
	}
	var res server.PlaceResult
	err := c.call("evaluate", http.MethodGet, "/v1/graphs/"+graphID+"/evaluate?filters="+strings.Join(q, ","), nil, http.StatusOK, &res)
	return &res, err
}

// scrape fetches the Prometheus exposition and checks it has samples.
func (c *client) scrape() error {
	status, data, err := c.send("scrape", http.MethodGet, "/metrics?format=prometheus", nil)
	if err == nil && (status != http.StatusOK || !bytes.Contains(data, []byte("# TYPE fpd_"))) {
		err = fmt.Errorf("scrape: status %d, %d bytes without fpd series", status, len(data))
	}
	return err
}

// checkResult validates a placement or evaluation response: finite
// objective values, at most k distinct in-range filters, and no cache
// hit where the op requires a miss.
func checkResult(r *server.PlaceResult, n, k int, wantMiss bool) error {
	if r == nil {
		return errors.New("no result")
	}
	for _, v := range []float64{r.PhiEmpty, r.PhiA, r.F, r.FR} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite objective in %+v", *r)
		}
	}
	if wantMiss && r.Cached {
		return errors.New("cached result where a miss is required")
	}
	if k > 0 && len(r.Filters) > k {
		return fmt.Errorf("%d filters for k = %d", len(r.Filters), k)
	}
	seen := make(map[int]bool, len(r.Filters))
	for _, v := range r.Filters {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("bad filter list %v", r.Filters)
		}
		seen[v] = true
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
