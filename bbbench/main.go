// Command bbbench is the end-to-end benchmark of BlindBox: real client →
// middlebox → server sessions over the host's loopback interface, all three
// parties in this process, driven through the public Dial, Server, NewMux
// and Middlebox.Serve path with tracing and metrics off.
//
//	bbbench --workload bulk --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it runs the workload's closed loop for --seconds, checks
// every output and prints the end-to-end metrics. With --trace 1 it runs
// the same workload untraced for half the time (process CPU, GC share,
// work done), then sends the same seeded inputs through each layer's public
// functions one layer at a time, records a span around every call, and
// prints the per-layer metrics and the budget they add up to. The spans
// are written as JSONL under .bench_build/bbbench-traces/, readable with
// `bbtrace -spans`. The last line of standard output is the JSON result.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/tuning"
)

// setupReps is how many times an untraced run sets up from scratch;
// setup_s is the median.
const setupReps = 5

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	size     size
	// setupReps is how many times an untraced run sets up from scratch.
	setupReps int
	bad       corruption
	// traceDir receives the traced run's spans; empty keeps them in
	// memory only.
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		cfg     = runConfig{size: fullSize, setupReps: setupReps, traceDir: filepath.Join(".bench_build", "bbbench-traces")}
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: bulk, sessions, small_requests or mb_replay")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass and prints per-layer metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "bbbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.window, cfg.trace = time.Duration(seconds)*time.Second, trace == 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bbbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and logs a readable report to out. An
// error means no result could be produced; failed output checks yield a
// result with Correct false.
func run(cfg runConfig, out io.Writer) (result, error) {
	sp, ok := findSpec(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Load above the core count would measure the scheduler, not BlindBox.
	if sp.concurrency > runtime.NumCPU() {
		return result{}, fmt.Errorf("workload %s needs %d concurrent clients but this host has %d cores; refusing to run",
			sp.name, sp.concurrency, runtime.NumCPU())
	}
	if sp.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sp.procs))
	}
	fmt.Fprintf(out, "bbbench: workload=%s seed=%d window=%s trace=%v concurrency=%d nproc=%d gomaxprocs=%d go=%s commit=%s network=loopback\n",
		sp.name, cfg.seed, cfg.window, cfg.trace, sp.concurrency, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	fx, err := newFixture(cfg.seed)
	if err != nil {
		return result{}, err
	}
	wl, err := sp.build(fx, cfg.seed, cfg.size, cfg.bad)
	if err != nil {
		return result{}, fmt.Errorf("inputs: %w", err)
	}

	// Set-up: middlebox construction and the first handshake, each time
	// from scratch, including the tuning calibration the middlebox and
	// the endpoints cache per process.
	reps := cfg.setupReps
	if cfg.trace || reps < 1 {
		reps = 1
	}
	var (
		setups, dials []time.Duration
		h             *harness
	)
	for i := 0; i < reps; i++ {
		if h != nil {
			wl.shutdown()
			if err := h.close(); err != nil {
				return result{}, err
			}
		}
		tuning.ResetAutoCache()
		t0 := time.Now()
		if h, err = newHarness(fx, wl.serve, false); err != nil {
			return result{}, err
		}
		t1 := time.Now()
		if err := wl.open(h); err != nil {
			_ = h.close()
			return result{}, fmt.Errorf("set-up handshake: %w", err)
		}
		setups, dials = append(setups, time.Since(t0)), append(dials, time.Since(t1))
	}
	if err := wl.ready(h); err != nil {
		wl.shutdown()
		_ = h.close()
		return result{}, err
	}

	t := tuning.Auto()
	fmt.Fprintf(out, "bbbench: tuning encrypt_workers=%d encrypt_min_batch=%d detect_shards=%d\n",
		t.EncryptWorkers, t.EncryptMinBatch, t.DetectShards)

	win := cfg.window
	if cfg.trace {
		win /= 2
	}
	w, m := measure(h, wl, sp.concurrency, win, 0)
	res := result{Correct: true, Attempted: w.attempted, Failed: w.failed}
	for _, e := range w.errs {
		fmt.Fprintln(out, "bbbench: request failed:", e)
	}
	if w.failed > 0 || len(w.latencies) == 0 {
		res.Correct = false
	}
	if err := wl.verify(h, w); err != nil {
		fmt.Fprintln(out, "bbbench: alert check failed:", err)
		res.Correct = false
	}
	wl.shutdown()
	if err := h.close(); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "bbbench: %d requests (%d failed) in %.3fs, %d payload bytes, %.3fs process CPU\n",
		w.attempted, w.failed, m.elapsed.Seconds(), w.bytes, m.cpu.Seconds())

	if cfg.trace {
		res.Metrics, err = traced(cfg, sp, fx, wl, w, m, out)
		if err != nil {
			fmt.Fprintln(out, "bbbench: traced pass failed:", err)
			res.Correct = false
		}
	} else {
		res.Metrics = endToEnd(w, m, setups, dials)
	}
	names := mapKeys(res.Metrics)
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %-38s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// measured is what the process spent during a timed window.
type measured struct {
	elapsed time.Duration
	cpu     time.Duration
	// gcShare is the runtime's estimate of the CPU share spent in GC.
	gcShare float64
	// heap is the heap in use after a forced GC at the end of the window,
	// with the workload's sessions still open.
	heap uint64
	// tokens is how many encrypted tokens the middlebox scanned.
	tokens uint64
}

// measure runs conc closed-loop clients until the window ends (or, with
// limit > 0, until limit requests were attempted).
func measure(h *harness, wl workload, conc int, win time.Duration, limit int64) (*window, measured) {
	var m measured
	runtime.GC()
	gc0, tot0 := gcCPU()
	tok0 := h.mb.Stats().TokensScanned
	cpu0 := cpuTime()
	start := time.Now()
	w := &window{until: start.Add(win), limit: limit}
	var wg sync.WaitGroup
	for c := 0; c < conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl.drive(h, c, w)
		}()
	}
	wg.Wait()
	m.elapsed = time.Since(start)
	m.cpu = cpuTime() - cpu0
	m.tokens = h.mb.Stats().TokensScanned - tok0
	if gc1, tot1 := gcCPU(); tot1 > tot0 {
		m.gcShare = (gc1 - gc0) / (tot1 - tot0)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heap = ms.HeapAlloc
	return w, m
}

// endToEnd derives the user-visible metrics of an untraced run.
func endToEnd(w *window, m measured, setups, dials []time.Duration) map[string]metric {
	// Sessions opened inside the window are the setup samples when the
	// workload opens any; otherwise the set-up handshakes are.
	if len(w.dials) > 0 {
		dials = w.dials
	}
	secs := m.elapsed.Seconds()
	mib := float64(w.bytes) / (1 << 20)
	return map[string]metric{
		"goodput_mbps":         {ratio(float64(w.bytes)*8/1e6, secs), "Mbit/s"},
		"cpu_ms_per_mib":       {ratio(float64(m.cpu)/1e6, mib), "ms/MiB"},
		"requests_per_s":       {ratio(float64(len(w.latencies)), secs), "1/s"},
		"request_p50_ms":       {ms(quantile(w.latencies, 0.50)), "ms"},
		"request_p90_ms":       {ms(quantile(w.latencies, 0.90)), "ms"},
		"session_setup_p50_ms": {ms(quantile(dials, 0.50)), "ms"},
		"setup_s":              {quantile(setups, 0.50).Seconds(), "s"},
		"retained_heap_mib":    {float64(m.heap) / (1 << 20), "MiB"},
	}
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a run with no completed work, which
// fails its checks anyway).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// cpuTime is the CPU time of all the process's threads, from the
// scheduler's nanosecond accounting (getrusage may count in clock ticks).
func cpuTime() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
