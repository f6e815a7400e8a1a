package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects everything one workload run reports: the gated metrics
// (end-to-end when untraced, per-layer when traced), figures that are
// printed and saved but not gated, sample counts behind percentiles,
// correctness failures, the work ledger, and the spans of a traced run.
type outcome struct {
	mu        sync.Mutex
	Attempted int               `json:"attempted"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Samples   map[string]int    `json:"samples,omitempty"`
	Ledger    *ledger           `json:"ledger,omitempty"`
	Seeds     map[string]int64  `json:"seeds,omitempty"`
	spans     *recorder
}

func newOutcome() *outcome {
	return &outcome{
		Metrics: map[string]metric{},
		Extra:   map[string]metric{},
		Samples: map[string]int{},
		Seeds:   map[string]int64{},
	}
}

// fail records one failed operation or correctness check. Safe for
// concurrent use.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.Failures) < 1000 {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	} else {
		o.Failures = append(o.Failures[:1000], "...")
	}
}

func (o *outcome) failed() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.Failures)
}

func (o *outcome) set(name string, v float64, unit string) { o.Metrics[name] = metric{v, unit} }

func (o *outcome) extra(name string, v float64, unit string) { o.Extra[name] = metric{v, unit} }

// percentile returns the p-quantile of xs (0 ≤ p ≤ 1) by linear
// interpolation between order statistics; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// subSeed derives a stable per-purpose seed from the run seed.
func subSeed(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, tag, i)
	return int64(h.Sum64() >> 1)
}

// timeSetup runs build once to warm up and then reps times, and returns the
// median wall time of the timed builds in seconds; the last build's state is
// what the workload keeps. Each build starts after a collection, so that
// garbage left by the one before does not land in its time.
func timeSetup(reps int, build func() error) (float64, error) {
	var ts []float64
	for i := 0; i <= reps; i++ {
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		if i > 0 {
			ts = append(ts, time.Since(start).Seconds())
		}
	}
	return percentile(ts, 0.5), nil
}

// window is the timed part of a run: a deadline, the op latencies, and the
// process-wide allocation and peak-heap figures over the same interval.
type window struct {
	mu       sync.Mutex
	start    time.Time
	deadline time.Time
	end      time.Time
	paused   time.Duration
	alloc0   uint64
	alloc    uint64
	ops      []float64
	heap     *heapSampler
}

func startWindow(d time.Duration) *window {
	runtime.GC()
	now := time.Now()
	return &window{start: now, deadline: now.Add(d), alloc0: totalAlloc(), heap: startHeapSampler()}
}

func totalAlloc() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// pause stops the window's clock, allocation count and heap sampling until
// the returned function is called, so set-up work done mid-run is not
// measured. The deadline moves back by the paused time. Not for use while
// other goroutines run ops.
func (w *window) pause() (resume func()) {
	w.heap.setPaused(true)
	a0, t0 := totalAlloc(), time.Now()
	return func() {
		runtime.GC()
		d := time.Since(t0)
		w.paused += d
		w.deadline = w.deadline.Add(d)
		w.alloc0 += totalAlloc() - a0
		w.heap.setPaused(false)
	}
}

// open reports whether another op may start.
func (w *window) open() bool { return time.Now().Before(w.deadline) }

// op records one op's latency. Safe for concurrent use.
func (w *window) op(d time.Duration) {
	w.mu.Lock()
	w.ops = append(w.ops, ms(d))
	w.mu.Unlock()
}

// close stops the clock and the heap sampler.
func (w *window) close() {
	w.end = time.Now()
	w.alloc = totalAlloc() - w.alloc0
	w.heap.stop()
}

// report fills the end-to-end metrics every workload shares.
func (w *window) report(o *outcome) {
	n := len(w.ops)
	o.Attempted += n
	secs := (w.end.Sub(w.start) - w.paused).Seconds()
	o.set("ops_per_s", float64(n)/secs, "op/s")
	o.set("op_ms.p50", percentile(w.ops, 0.5), "ms")
	o.Samples["op_ms.p50"] = n
	// The highest percentile with at least ten samples beyond it.
	if n >= 100 {
		o.extra("op_ms.p90", percentile(w.ops, 0.9), "ms")
		o.Samples["op_ms.p90"] = n
	}
	if n > 0 {
		o.set("alloc_mb_per_op", float64(w.alloc)/1e6/float64(n), "MB")
	}
	o.set("heap_peak_mb", w.heap.medianPeakMB(), "MB")
	o.Samples["heap_peak_mb"] = len(w.heap.peaks)
	o.extra("window_s", secs, "s")
}

// heapSlice is the length of the slices of the window whose in-use heap
// peaks heap_peak_mb takes the median of: a single peak over the whole
// window swings with GC phase and with the one largest input.
const heapSlice = 2 * time.Second

// heapSampler polls the in-use heap (runtime/metrics, no stop-the-world)
// and keeps its peak per slice of the window until stop returns.
type heapSampler struct {
	mu       sync.Mutex
	start    time.Time
	paused   time.Duration // total time spent paused
	pausedAt time.Time     // zero while sampling
	peaks    []uint64
	quit     chan struct{}
	done     chan struct{}
}

var heapInuseMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{start: time.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	samples := make([]metrics.Sample, len(heapInuseMetrics))
	for i, name := range heapInuseMetrics {
		samples[i].Name = name
	}
	read := func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if !h.pausedAt.IsZero() {
			return
		}
		metrics.Read(samples)
		var v uint64
		for _, s := range samples {
			if s.Value.Kind() == metrics.KindUint64 {
				v += s.Value.Uint64()
			}
		}
		i := int((time.Since(h.start) - h.paused) / heapSlice)
		for len(h.peaks) <= i {
			h.peaks = append(h.peaks, 0)
		}
		h.peaks[i] = max(h.peaks[i], v)
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

func (h *heapSampler) setPaused(p bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p {
		h.pausedAt = time.Now()
	} else {
		h.paused += time.Since(h.pausedAt)
		h.pausedAt = time.Time{}
	}
}

func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

// medianPeakMB is the median over slices of the slice's peak, in MB.
func (h *heapSampler) medianPeakMB() float64 {
	var mb []float64
	for _, p := range h.peaks {
		if p > 0 {
			mb = append(mb, float64(p)/1e6)
		}
	}
	return percentile(mb, 0.5)
}

// span is one timed call into a layer. Spans of one op share Op; Parent is
// the span that caused this one (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run ends.
// Safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its ID and the function that closes it.
// A root span given op 0 starts a new op identified by the span's own ID.
func (r *recorder) start(name string, parent, op int) (int, func()) {
	r.mu.Lock()
	id := len(r.spans) + 1
	if op == 0 && parent == 0 {
		op = id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: time.Since(r.epoch).Nanoseconds()})
	r.mu.Unlock()
	return id, func() {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans[id-1].EndNs = end
		r.mu.Unlock()
	}
}

// do times f as a span.
func (r *recorder) do(name string, parent, op int, f func()) {
	_, end := r.start(name, parent, op)
	f()
	end()
}

// selfMs sums, per span name, each span's duration minus the part of its
// interval covered by its children, in milliseconds.
func (r *recorder) selfMs() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	out := map[string]float64{}
	for _, s := range r.spans {
		covered := int64(0)
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		cur := s.StartNs
		for _, iv := range ivs {
			lo, hi := max(iv[0], cur), min(iv[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += float64(s.EndNs-s.StartNs-covered) / 1e6
	}
	return out
}

// ledger is the work ledger: pipeline counters that depend only on the
// scenario. Admitted counters repeated exactly between the runs compared
// (WithWorkers(1) against the default worker count, and a repeat);
// excluded ones did not, and are named with their values.
type ledger struct {
	Workers  []int              `json:"workers"`
	Admitted map[string]int64   `json:"admitted"`
	Excluded map[string][]int64 `json:"excluded,omitempty"`
}

// buildLedger compares counter sets taken from runs of identical work.
func buildLedger(workers []int, runs []map[string]int64) *ledger {
	l := &ledger{Workers: workers, Admitted: map[string]int64{}, Excluded: map[string][]int64{}}
	names := map[string]bool{}
	for _, r := range runs {
		for k := range r {
			names[k] = true
		}
	}
	for k := range names {
		same := true
		var vals []int64
		for _, r := range runs {
			vals = append(vals, r[k])
			if r[k] != runs[0][k] {
				same = false
			}
		}
		if same {
			l.Admitted[k] = runs[0][k]
		} else {
			l.Excluded[k] = vals
		}
	}
	return l
}
