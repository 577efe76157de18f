package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/scenario"
)

// Client is a typed HTTP client for a running daemon. The zero HTTP client
// is used unless replaced; all methods honor their context.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewClient(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), http: &http.Client{}}
}

// BaseURL returns the daemon URL this client talks to, normalized (no
// trailing slash). Useful for handing the same endpoint to a fleet worker's
// Join configuration.
func (c *Client) BaseURL() string { return c.base }

// do sends one request — body, when non-nil, as JSON — and returns the
// response once its status is 2xx; any other status becomes an error
// carrying the server's message. The caller drains and closes the body.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if err := checkStatus(resp); err != nil {
		drainClose(resp.Body)
		return nil, err
	}
	return resp, nil
}

// call is do followed by decoding the JSON answer into out, when non-nil.
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// checkStatus turns a non-2xx response into an error carrying the server's
// message.
func checkStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	var e errorResponse
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); err == nil {
		if json.Unmarshal(b, &e) != nil || e.Error == "" {
			e.Error = strings.TrimSpace(string(b))
		}
	}
	return fmt.Errorf("service: %s: %s", resp.Status, e.Error)
}

// drainClose discards the rest of a response body so the connection can be
// reused, then closes it.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	_ = body.Close()
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	var out map[string]any
	return c.call(ctx, http.MethodGet, "/healthz", nil, &out)
}

// Scenarios fetches the registry catalog.
func (c *Client) Scenarios(ctx context.Context) ([]scenario.Descriptor, error) {
	var out []scenario.Descriptor
	if err := c.call(ctx, http.MethodGet, "/scenarios", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats fetches the daemon's operational counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.call(ctx, http.MethodGet, "/statz", nil, &out)
	return out, err
}

// Submit posts a job batch and returns the accepted states, in request
// order. Cached jobs come back already done, result included.
func (c *Client) Submit(ctx context.Context, reqs []JobRequest) ([]JobState, error) {
	var out BatchResponse
	if err := c.call(ctx, http.MethodPost, "/jobs", BatchRequest{Jobs: reqs}, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Job fetches one job's current state.
func (c *Client) Job(ctx context.Context, id string) (JobState, error) {
	var out JobState
	err := c.call(ctx, http.MethodGet, "/jobs/"+id, nil, &out)
	return out, err
}

// Cancel cancels a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/jobs/"+id, nil, nil)
}

// watchStream follows one NDJSON watch endpoint, invoking fn (if non-nil)
// on every decoded line, and returns the last state seen, which must be
// terminal.
func watchStream[P any](ctx context.Context, c *Client, path, id string, fn func(wireState[P])) (wireState[P], error) {
	var last wireState[P]
	resp, err := c.do(ctx, http.MethodGet, path+"/"+id+"?watch=1", nil)
	if err != nil {
		return last, err
	}
	defer drainClose(resp.Body)
	// Lines start at bufio's default buffer, which grows to the longest
	// line seen: most states are well under a KiB, while a large outcome's
	// state can run to hundreds of KiB.
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(nil, 16<<20)
	seen := false
	for scan.Scan() {
		var st wireState[P]
		if err := json.Unmarshal(scan.Bytes(), &st); err != nil {
			return last, fmt.Errorf("service: bad stream line: %w", err)
		}
		last, seen = st, true
		if fn != nil {
			fn(st)
		}
	}
	if err := scan.Err(); err != nil {
		return last, err
	}
	if !seen {
		return last, fmt.Errorf("service: empty watch stream for %s", id)
	}
	if !last.Status.Terminal() {
		return last, fmt.Errorf("service: watch stream for %s ended at status %s", id, last.Status)
	}
	return last, nil
}

// Watch follows a job's NDJSON progress stream, invoking fn (if non-nil)
// on every line, and returns the terminal state.
func (c *Client) Watch(ctx context.Context, id string, fn func(JobState)) (JobState, error) {
	return watchStream(ctx, c, "/jobs", id, fn)
}

// Wait blocks until the job reaches a terminal state and returns it.
func (c *Client) Wait(ctx context.Context, id string) (JobState, error) {
	return c.Watch(ctx, id, nil)
}

// SubmitCerts posts a certification batch and returns the accepted states,
// in request order. Cached sweeps come back already done, certificate
// included.
func (c *Client) SubmitCerts(ctx context.Context, reqs []CertRequest) ([]CertState, error) {
	var out CertBatchResponse
	if err := c.call(ctx, http.MethodPost, "/certify", CertBatchRequest{Certs: reqs}, &out); err != nil {
		return nil, err
	}
	return out.Certs, nil
}

// Cert fetches one certification job's current state.
func (c *Client) Cert(ctx context.Context, id string) (CertState, error) {
	var out CertState
	err := c.call(ctx, http.MethodGet, "/certify/"+id, nil, &out)
	return out, err
}

// CancelCert cancels a queued or running certification job.
func (c *Client) CancelCert(ctx context.Context, id string) error {
	return c.call(ctx, http.MethodDelete, "/certify/"+id, nil, nil)
}

// WatchCert follows a certification job's NDJSON progress stream —
// one line per finished deviation candidate — invoking fn (if non-nil) on
// every line, and returns the terminal state.
func (c *Client) WatchCert(ctx context.Context, id string, fn func(CertState)) (CertState, error) {
	return watchStream(ctx, c, "/certify", id, fn)
}

// WaitCert blocks until the certification job reaches a terminal state and
// returns it.
func (c *Client) WaitCert(ctx context.Context, id string) (CertState, error) {
	return c.WatchCert(ctx, id, nil)
}
