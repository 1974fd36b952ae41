package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

const seqHeader = "X-SSD-Seq" // the read-your-writes token (internal/server)

// sample is one successful operation's latency. For a ryw pair ms is the
// whole pair and writeMS / readMS its two requests.
type sample struct {
	class           class
	ms              float64
	writeMS, readMS float64
}

// client is one closed-loop caller on its own connection: it sends its next
// request only after the previous response has been read and checked.
type client struct {
	id     int
	base   string
	hc     *http.Client
	stream []*request
	next   int
	wrap   bool // reads may replay their stream; writes may not
	buf    bytes.Buffer

	samples   []sample
	attempted int
	failed    int
	firstErr  error
	acked     []string // marker titles of acknowledged commits, in order
	lastSeq   uint64   // highest commit position acknowledged to this client
}

func newClient(id int, base string, stream []*request, wrap bool) *client {
	return &client{
		id: id, base: base, stream: stream, wrap: wrap,
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and leaves the response body in c.buf.
func (c *client) post(path string, body []byte, token uint64) (http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if token > 0 {
		req.Header.Set(seqHeader, strconv.FormatUint(token, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return resp.Header, nil
}

// query runs one read and checks it: 200, an NDJSON stream terminated by
// {"done":true,"rows":N}, N row lines, and N the expected count. A refused,
// unterminated or wrong-answer response is an error.
func (c *client) query(r *request, token uint64, urlSuffix string) (*queryStatus, error) {
	if _, err := c.post("/query"+urlSuffix, r.body, token); err != nil {
		return nil, err
	}
	body := c.buf.Bytes()
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return nil, fmt.Errorf("query: unterminated response")
	}
	lines := bytes.Count(body, []byte{'\n'})
	last := body[:len(body)-1]
	if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var st queryStatus
	if err := json.Unmarshal(last, &st); err != nil || !st.Done {
		return nil, fmt.Errorf("query: no terminal done line: %s", last)
	}
	if st.Rows != lines-1 || st.Rows != r.want {
		return nil, fmt.Errorf("query %s %v: %d rows announced, %d streamed, want %d",
			classNames[r.class], r.param, st.Rows, lines-1, r.want)
	}
	return &st, nil
}

// queryStatus is the terminal NDJSON line; Trace is present under ?trace=1.
type queryStatus struct {
	Done  bool `json:"done"`
	Rows  int  `json:"rows"`
	Trace *struct {
		PlanPooled bool `json:"plan_pooled"`
		Atoms      []struct {
			Op     string `json:"op"`
			Rows   int64  `json:"rows"`
			TimeUS int64  `json:"time_us"`
		} `json:"atoms"`
	} `json:"trace"`
}

// mutate commits one script and returns the acknowledged commit position.
func (c *client) mutate(r *request) (uint64, error) {
	hdr, err := c.post("/mutate", r.body, 0)
	if err != nil {
		return 0, err
	}
	var ack struct {
		Applied bool   `json:"applied"`
		Seq     uint64 `json:"seq"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &ack); err != nil || !ack.Applied {
		return 0, fmt.Errorf("mutate: not acknowledged: %s", bytes.TrimSpace(c.buf.Bytes()))
	}
	if tok, _ := strconv.ParseUint(hdr.Get(seqHeader), 10, 64); tok != ack.Seq || tok == 0 {
		return 0, fmt.Errorf("mutate: token header %q disagrees with acknowledged seq %d", hdr.Get(seqHeader), ack.Seq)
	}
	if r.title != "" {
		c.acked = append(c.acked, r.title)
	}
	if ack.Seq > c.lastSeq {
		c.lastSeq = ack.Seq
	}
	return ack.Seq, nil
}

// do runs one operation end to end and returns its latency sample.
func (c *client) do(r *request) (sample, error) {
	s := sample{class: r.class}
	start := time.Now()
	switch r.class {
	case clsSel, clsPath, clsWide:
		if _, err := c.query(r, 0, ""); err != nil {
			return s, err
		}
	case clsIns, clsRel, clsDel:
		if _, err := c.mutate(r); err != nil {
			return s, err
		}
	case clsRyw:
		seq, err := c.mutate(r)
		if err != nil {
			return s, err
		}
		mid := time.Now()
		s.writeMS = ms(mid.Sub(start))
		// The read is held to the position the write was acknowledged at:
		// the replica waits or refuses; a missing row is a stale answer.
		if _, err := c.query(r.read, seq, ""); err != nil {
			return s, err
		}
		s.readMS = ms(time.Since(mid))
	}
	s.ms = ms(time.Since(start))
	return s, nil
}

// step takes the next request off the stream and runs it, keeping count.
func (c *client) step(record bool) error {
	if c.next == len(c.stream) {
		if !c.wrap {
			return fmt.Errorf("client %d: request stream of %d exhausted", c.id, len(c.stream))
		}
		c.next = 0
	}
	r := c.stream[c.next]
	c.next++
	s, err := c.do(r)
	if !record {
		return err
	}
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
		return nil // counted; the loop goes on
	}
	c.samples = append(c.samples, s)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// drive runs every client's closed loop for d and returns the time from the
// common start to the last completed operation. With record false (warm-up)
// nothing is counted and the first failure is returned.
func drive(clients []*client, d time.Duration, record bool) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	ends := make([]time.Time, len(clients))
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := c.step(record); err != nil {
					errs[i] = err
					break
				}
			}
			ends[i] = time.Now()
		}(i, c)
	}
	wg.Wait()
	end := start
	for i := range clients {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if ends[i].After(end) {
			end = ends[i]
		}
	}
	return end.Sub(start), nil
}
