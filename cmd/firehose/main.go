// Command firehose streams synthetic activities at a live elevingest
// server: it generates -n activities from the seeded athlete generator,
// POSTs them as NDJSON in -chunk sized batches at -rate activities/sec,
// retries through server restarts, and exits 0 once the server's results
// ledger holds them all. -ndjson-out also writes the exact stream to a
// file, the input of the offline baseline (elevingest -offline).
//
// Usage:
//
//	firehose -target http://localhost:8090 -n 400 -ndjson-out all.ndjson
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"elevprivacy/internal/activity"
	"elevprivacy/internal/durable"
	"elevprivacy/internal/httpx"
	"elevprivacy/internal/ingest"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "firehose:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		target    = flag.String("target", "", "elevingest base URL to stream at (required)")
		n         = flag.Int("n", 400, "activities to stream")
		seed      = flag.Int64("seed", 17, "random seed for the synthetic firehose")
		rate      = flag.Float64("rate", 120, "offered activities/sec")
		chunk     = flag.Int("chunk", 10, "activities per POST")
		ndjsonOut = flag.String("ndjson-out", "", "also write the generated firehose to this NDJSON file")
		wait      = flag.Duration("wait", 2*time.Minute, "how long to wait for the results ledger to catch up")
	)
	flag.Parse()
	if *target == "" {
		return fmt.Errorf("need -target")
	}
	return stream(*target, *n, *seed, *rate, *chunk, *ndjsonOut, *wait)
}

// generate materializes n firehose envelopes from the streaming generator.
func generate(n int, seed int64) ([]ingest.Envelope, error) {
	gen, err := activity.NewGenerator(nil, activity.DefaultAthleteConfig(), seed)
	if err != nil {
		return nil, err
	}
	out := make([]ingest.Envelope, 0, n)
	for i := 0; i < n; i++ {
		act, err := gen.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, ingest.Envelope{ID: act.Name, Region: act.Region, Elevations: act.Elevations})
	}
	return out, nil
}

func encodeChunk(envs []ingest.Envelope) ([]byte, error) {
	var buf bytes.Buffer
	for _, e := range envs {
		line, err := ingest.EncodeLine(e)
		if err != nil {
			return nil, err
		}
		buf.Write(line)
	}
	return buf.Bytes(), nil
}

func stats(baseURL string) (ingest.Stats, error) {
	var st ingest.Stats
	resp, err := http.Get(baseURL + "/ingest/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET %s/ingest/stats: %s", baseURL, resp.Status)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(blob, &st)
}

// waitResults polls the stats endpoint until the results ledger holds n
// activities.
func waitResults(baseURL string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, err := stats(baseURL)
		if err == nil && st.Results >= n {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for %d results", n)
}

// stream sends n activities at rate, riding out restarts with a generously
// retrying client, then waits for the results ledger to hold everything.
func stream(target string, n int, seed int64, rate float64, chunk int, ndjsonOut string, wait time.Duration) error {
	envs, err := generate(n, seed)
	if err != nil {
		return err
	}
	if ndjsonOut != "" {
		err := durable.WriteFileAtomic(ndjsonOut, 0o644, func(w io.Writer) error {
			for _, e := range envs {
				line, err := ingest.EncodeLine(e)
				if err != nil {
					return err
				}
				if _, err := w.Write(line); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	// The client must survive a SIGKILL + restart window mid-stream:
	// generous attempts, capped backoff, and replayable bodies (bytes.Reader
	// sets GetBody) mean a killed connection or a down server is just
	// another retry.
	client := httpx.NewClient(&http.Client{Timeout: 30 * time.Second},
		httpx.WithPolicy(httpx.Policy{
			MaxAttempts: 60,
			BaseDelay:   100 * time.Millisecond,
			Multiplier:  1.5,
			MaxDelay:    2 * time.Second,
			Jitter:      0.2,
		}))

	if chunk < 1 {
		chunk = 1
	}
	interval := time.Duration(float64(chunk) / rate * float64(time.Second))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	target = strings.TrimRight(target, "/")

	sent := 0
	for at := 0; at < len(envs); at += chunk {
		<-ticker.C
		end := min(at+chunk, len(envs))
		body, err := encodeChunk(envs[at:end])
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, target+"/ingest", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err := client.Do(req)
		if err != nil {
			return fmt.Errorf("chunk at %d: %w", at, err)
		}
		io.Copy(io.Discard, resp.Body)
		code := resp.StatusCode
		resp.Body.Close()
		if code != http.StatusOK {
			return fmt.Errorf("chunk at %d: status %d after retries", at, code)
		}
		sent = end
	}
	fmt.Printf("streamed %d activities to %s\n", sent, target)

	if err := waitResults(target, n, wait); err != nil {
		return err
	}
	st, err := stats(target)
	if err != nil {
		return err
	}
	fmt.Printf("server ledger: results=%d accepted=%d duplicates=%d spilled=%d replayed=%d restored=%d\n",
		st.Results, st.Accepted, st.Duplicates, st.Spilled, st.Replayed, st.Restored)
	return nil
}
