// Command diskthru-client is a minimal CLI for the diskthrud job API —
// everything it does is plain JSON over HTTP and equally reachable with
// curl (README.md shows the equivalent session).
//
// Usage:
//
//	diskthru-client [-addr http://127.0.0.1:7070] <command> [args]
//
//	submit -experiment fig1 [-quick] [-j N] [-seed S] [-timeout 30s] [-format csv] [-key K] [-cell I]
//	status <job-id>          print the job's JSON view
//	result <job-id>          print a finished job's rendered result
//	wait   <job-id>          poll until terminal; print the result
//	run    -experiment ...   submit + wait in one step
//	cancel <job-id>          request cancellation
//	list [-limit N] [-state S]  list jobs, oldest first (id, state, experiment, submitted)
//	metrics                  dump the daemon's /metrics text
//
// A 429 from the daemon's bounded admission queue is not an error: the
// client honors Retry-After and retries the submission with the same
// capped, jittered backoff the fleet coordinator uses (-retries bounds
// the attempts; -retries 0 restores fail-fast).
//
// Exit status is 0 only when the addressed job ends in state "done"
// (for wait/run) or the request succeeded (for the rest).
package main

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"time"

	"diskthru/internal/fleet"
)

// view mirrors serve.View; only the fields the client prints.
type view struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result string `json:"result"`
	Spec   struct {
		Experiment string `json:"experiment"`
	} `json:"spec"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7070", "daemon base URL")
	poll := flag.Duration("poll", 200*time.Millisecond, "poll interval for wait/run")
	retries := flag.Int("retries", 5, "submissions retried after 429 backpressure (0 = fail fast)")
	flag.Parse()
	if flag.NArg() < 1 {
		fail("usage: diskthru-client [-addr URL] submit|status|result|wait|run|cancel|list|metrics ...")
	}
	c := client{base: *addr, poll: *poll, retries: *retries}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "submit":
		v := c.submit(args)
		fmt.Println(v.ID)
	case "status":
		c.printJSON("GET", "/v1/jobs/"+argID(args), nil)
	case "result":
		v := c.get(argID(args))
		c.finish(v)
	case "wait":
		c.finish(c.wait(argID(args)))
	case "run":
		v := c.submit(args)
		fmt.Fprintf(os.Stderr, "diskthru-client: submitted %s\n", v.ID)
		c.finish(c.wait(v.ID))
	case "cancel":
		c.printJSON("DELETE", "/v1/jobs/"+argID(args), nil)
	case "list":
		fs := flag.NewFlagSet("list", flag.ExitOnError)
		limit := fs.Int("limit", 0, "return only the newest N jobs (0 = all)")
		state := fs.String("state", "", "return only jobs in this state: queued|running|done|failed|canceled (empty = all)")
		_ = fs.Parse(args)
		q := url.Values{}
		if *limit > 0 {
			q.Set("limit", fmt.Sprint(*limit))
		}
		if *state != "" {
			q.Set("state", *state)
		}
		path := "/v1/jobs"
		if len(q) > 0 {
			path += "?" + q.Encode()
		}
		var entries []struct {
			ID          string    `json:"id"`
			State       string    `json:"state"`
			Experiment  string    `json:"experiment"`
			SubmittedAt time.Time `json:"submitted_at"`
		}
		c.getJSON(path, &entries)
		for _, e := range entries {
			fmt.Printf("%s\t%s\t%s\t%s\n", e.ID, e.State, e.Experiment,
				e.SubmittedAt.Format(time.RFC3339))
		}
	case "metrics":
		resp := c.do("GET", "/metrics", nil)
		defer resp.Body.Close()
		_, _ = io.Copy(os.Stdout, resp.Body)
	default:
		fail("diskthru-client: unknown command %q", cmd)
	}
}

func argID(args []string) string {
	if len(args) != 1 {
		fail("diskthru-client: expected exactly one job id")
	}
	return args[0]
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

type client struct {
	base    string
	poll    time.Duration
	retries int
}

func (c client) do(method, path string, body io.Reader) *http.Response {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		fail("diskthru-client: %v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fail("diskthru-client: %v", err)
	}
	return resp
}

// doJSON performs the request and decodes the response, failing the
// process on any non-2xx status.
func (c client) doJSON(method, path string, body io.Reader, out any) {
	resp := c.do(method, path, body)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode/100 != 2 {
		fail("diskthru-client: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			fail("diskthru-client: bad response: %v", err)
		}
	}
}

func (c client) getJSON(path string, out any) { c.doJSON("GET", path, nil, out) }

// printJSON performs the request and echoes the raw JSON response.
func (c client) printJSON(method, path string, body io.Reader) {
	var raw json.RawMessage
	c.doJSON(method, path, body, &raw)
	pretty, _ := json.MarshalIndent(raw, "", "  ")
	fmt.Println(string(pretty))
}

func (c client) get(id string) view {
	var v view
	c.getJSON("/v1/jobs/"+id, &v)
	return v
}

// submit parses submit/run flags and posts the job.
func (c client) submit(args []string) view {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		experiment = fs.String("experiment", "", "experiment name (required; see diskthru -list)")
		quick      = fs.Bool("quick", false, "reduced scales")
		jobs       = fs.Int("j", 0, "cells run concurrently inside the job")
		seed       = fs.Int64("seed", 0, "generator seed offset")
		timeout    = fs.Duration("timeout", 0, "job deadline (0 = server default)")
		format     = fs.String("format", "", "result format: text | csv")
		key        = fs.String("key", "", "idempotency key; resubmitting the same key admits at most one job (empty = auto-generated)")
		cell       = fs.Int("cell", -1, "run a single decomposition cell by index (e.g. 2); the result is the cell's opaque payload in base64 (-1 = the whole experiment)")
		synReqs    = fs.Int("syn-requests", 0, "override synthetic trace length (0 = scale default)")
	)
	_ = fs.Parse(args)
	if *experiment == "" {
		fail("diskthru-client: submit needs -experiment")
	}
	if *key == "" {
		// One key per submission chain: every 429 retry below reuses
		// it, so backpressure retries can never double-admit — even if
		// the daemon restarts between attempts.
		*key = newKey()
	}
	spec := map[string]any{"experiment": *experiment, "idempotency_key": *key}
	if *quick {
		spec["quick"] = true
	}
	if *jobs > 0 {
		spec["parallelism"] = *jobs
	}
	if *seed != 0 {
		spec["seed"] = *seed
	}
	if *timeout > 0 {
		spec["timeout_seconds"] = timeout.Seconds()
	}
	if *format != "" {
		spec["format"] = *format
	}
	if *cell >= 0 {
		spec["cell"] = map[string]int{"index": *cell}
	}
	if *synReqs > 0 {
		spec["syn_requests"] = *synReqs
	}
	body, _ := json.Marshal(spec)
	return c.post(body)
}

// newKey generates a random idempotency key.
func newKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		fail("diskthru-client: generating idempotency key: %v", err)
	}
	return "cli-" + hex.EncodeToString(b[:])
}

// post submits the job body, absorbing 429 backpressure: the daemon's
// Retry-After is honored as the backoff floor (the same fleet.Backoff
// policy the coordinator uses), up to c.retries retries. The spec's
// idempotency key makes the whole retry chain admit at most one job (a
// replayed key answers 200 with the original view, which decodes the
// same as a fresh 202).
func (c client) post(body []byte) view {
	var backoff fleet.Backoff // zero value: 100ms..5s, full jitter
	for attempt := 0; ; attempt++ {
		resp := c.do("POST", "/v1/jobs", bytes.NewReader(body))
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < c.retries {
			retryAfter, _ := fleet.ParseRetryAfter(resp.Header)
			delay := backoff.Delay(attempt, retryAfter)
			fmt.Fprintf(os.Stderr, "diskthru-client: daemon busy (429); retry %d/%d in %v\n",
				attempt+1, c.retries, delay.Round(time.Millisecond))
			time.Sleep(delay)
			continue
		}
		if resp.StatusCode/100 != 2 {
			fail("diskthru-client: POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(raw))
		}
		var v view
		if err := json.Unmarshal(raw, &v); err != nil {
			fail("diskthru-client: bad response: %v", err)
		}
		return v
	}
}

// wait polls until the job reaches a terminal state.
func (c client) wait(id string) view {
	for {
		v := c.get(id)
		switch v.State {
		case "done", "failed", "canceled":
			return v
		}
		time.Sleep(c.poll)
	}
}

// finish prints a terminal job's outcome and sets the exit status.
func (c client) finish(v view) {
	switch v.State {
	case "done":
		fmt.Print(v.Result)
	case "queued", "running":
		fail("diskthru-client: %s still %s", v.ID, v.State)
	default:
		fail("diskthru-client: %s %s: %s", v.ID, v.State, v.Error)
	}
}
