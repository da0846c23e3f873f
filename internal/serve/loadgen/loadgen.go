// Package loadgen is the serve daemon's load-test harness: closed-loop
// workers driving the resolve path, either in-process (calling
// Server.ResolveOnce directly — measures the serving core without network
// costs) or as HTTP clients against a real listener (measures the full
// daemon surface). Both modes share one workload and one counter, so a
// sweep over worker counts compares like with like.
package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spacecdn/internal/serve"
	"spacecdn/internal/spacecdn"
	"spacecdn/internal/stats"
)

// Mode selects how workers drive the server.
type Mode int

const (
	// InProcess workers call Server.ResolveOnce directly.
	InProcess Mode = iota
	// HTTP workers issue GET /resolve against BaseURL over real sockets.
	HTTP
)

// Config parameterizes one load-generation run.
type Config struct {
	// Workers is the closed-loop goroutine count (each runs request after
	// request with no think time).
	Workers int
	// Requests is the total request budget shared by all workers.
	Requests int
	Mode     Mode
	// BaseURL is the daemon root for HTTP mode, e.g. "http://127.0.0.1:8080".
	BaseURL string
}

// Result summarizes one run. Latency percentiles are wall-clock per
// request as observed by the workers.
type Result struct {
	Workers   int
	Requests  int64
	Errors    int64
	Stale     int64
	Wall      time.Duration
	ReqPerSec float64
	P50Ms     float64
	P95Ms     float64
	P99Ms     float64
}

// Run drives the server with cfg.Workers closed-loop workers until the
// request budget is spent. Workers pull request indices from one shared
// counter, so the workload mix is identical for every worker count.
func Run(srv *serve.Server, wl *serve.Workload, cfg Config) (Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Requests <= 0 {
		return Result{}, fmt.Errorf("loadgen: request budget must be positive")
	}
	if cfg.Mode == HTTP && cfg.BaseURL == "" {
		return Result{}, fmt.Errorf("loadgen: HTTP mode requires BaseURL")
	}
	var tr *http.Transport
	if cfg.Mode == HTTP {
		// A per-run transport whose connections close when the run ends. An
		// idle keep-alive connection, or one dialed but never used, left
		// open would read as a never-used new connection on the server and
		// hold its graceful shutdown for net/http's 5 s grace period.
		tr = http.DefaultTransport.(*http.Transport).Clone()
		defer tr.CloseIdleConnections()
	}
	var next atomic.Uint64
	var errs, stale atomic.Int64
	lats := make([][]float64, cfg.Workers)
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			my := make([]float64, 0, cfg.Requests/cfg.Workers+1)
			var sc *serve.Scratch
			var client *http.Client
			if cfg.Mode == InProcess {
				sc = srv.AcquireScratch()
				defer srv.ReleaseScratch(sc)
			} else {
				client = &http.Client{Transport: tr}
			}
			for {
				i := next.Add(1) - 1
				if i >= uint64(cfg.Requests) {
					break
				}
				req := wl.Request(i)
				t0 := time.Now()
				if cfg.Mode == InProcess {
					res, err := srv.ResolveOnce(req, sc)
					if err != nil {
						errs.Add(1)
						continue
					}
					if res.Stale {
						stale.Add(1)
					}
				} else {
					if err := httpResolve(client, cfg.BaseURL, req); err != nil {
						errs.Add(1)
						continue
					}
				}
				my = append(my, float64(time.Since(t0))/float64(time.Millisecond))
			}
			lats[w] = my
		}(w)
	}
	wg.Wait()
	wall := time.Since(begin)
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	res := Result{
		Workers:   cfg.Workers,
		Requests:  int64(len(all)) + errs.Load(),
		Errors:    errs.Load(),
		Stale:     stale.Load(),
		Wall:      wall,
		ReqPerSec: float64(cfg.Requests) / wall.Seconds(),
	}
	if len(all) > 0 {
		cdf := stats.NewCDF(all)
		res.P50Ms = cdf.Median()
		res.P95Ms = cdf.Quantile(0.95)
		res.P99Ms = cdf.Quantile(0.99)
	}
	return res, nil
}

// httpResolve issues one GET /resolve and drains the body so the
// connection is reused.
func httpResolve(client *http.Client, base string, req spacecdn.Request) error {
	url := base + "/resolve?lat=" + strconv.FormatFloat(req.Client.LatDeg, 'f', 4, 64) +
		"&lon=" + strconv.FormatFloat(req.Client.LonDeg, 'f', 4, 64) +
		"&iso2=" + req.ISO2 + "&obj=" + string(req.Obj.ID)
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: %s: status %d", url, resp.StatusCode)
	}
	return nil
}

// MeasureAllocs reports steady-state heap allocations per request on the
// in-process path: one warmup pass over the request set (fills the scratch
// pool, path memos, and histogram shards), then a measured pass on a
// single goroutine between two MemStats readings, both at GOMAXPROCS 1
// (restored on return). Pass only space-served
// requests — the ground stage legitimately allocates its path, mirroring
// the resolve benchmark's steady-state definition.
func MeasureAllocs(srv *serve.Server, reqs []spacecdn.Request) (float64, error) {
	if len(reqs) == 0 {
		return 0, fmt.Errorf("loadgen: no steady-state requests to measure")
	}
	sc := srv.AcquireScratch()
	defer srv.ReleaseScratch(sc)
	// The warmup fills per-P sync.Pools (routing scratch, intents); like
	// testing.AllocsPerRun, measure on one P so a goroutine migration cannot
	// miss them and count the refill as a request allocation.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, r := range reqs {
		if _, err := srv.ResolveOnce(r, sc); err != nil {
			return 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range reqs {
		if _, err := srv.ResolveOnce(r, sc); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(len(reqs)), nil
}
