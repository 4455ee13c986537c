package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe collection of named counters and
// histograms. The zero value is not usable; NewRegistry allocates one. A
// nil *Registry is a valid disabled registry: lookups return nil
// instruments, whose methods are no-ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use; nil when
// the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram (default bucket layout), creating
// it on first use; nil when the registry is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Counter is an atomic monotonic counter. A nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram bucket layout: geometric buckets growing by histGrowth per
// step from histMin. With growth 2^(1/4) the quantile estimate's relative
// error is bounded by ~19%; 168 buckets span ~1e-7 .. ~4e5, covering
// nanosecond timers through hours as well as the power-gain magnitudes
// the pipeline records.
const (
	histMin     = 1e-7
	histBuckets = 168
)

var (
	histGrowth    = math.Pow(2, 0.25)
	histInvLogG   = 1 / math.Log(histGrowth)
	histLogMin    = math.Log(histMin)
	histUpperOnce sync.Once
	histUpper     [histBuckets]float64
)

func bucketUpper(i int) float64 {
	histUpperOnce.Do(func() {
		for b := 0; b < histBuckets; b++ {
			histUpper[b] = histMin * math.Pow(histGrowth, float64(b))
		}
	})
	return histUpper[i]
}

// Histogram records float64 observations (typically seconds) into
// geometric buckets with atomic updates. A nil Histogram is a no-op.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
	max     atomicFloat
}

// NewHistogram returns an empty histogram with the default bucket layout.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value. Non-positive and NaN values clamp into the
// lowest bucket (counted, not summed as garbage).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	i := 0
	if v > histMin {
		i = int(math.Ceil((math.Log(v) - histLogMin) * histInvLogG))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.max.storeMax(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max.load()
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) from
// the bucket cumulative counts; the estimate's relative error is bounded
// by the bucket growth factor (~19%). Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// atomicFloat is a float64 with atomic add and max via CAS on the bits.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time summary of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot summarizes the registry for reporting. The maps are fresh
// copies; a nil registry snapshots as empty.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current registry contents.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			Max:   h.Max(),
		}
	}
	return s
}

// WriteText renders the snapshot as aligned human-readable lines.
func (s Snapshot) WriteText(w io.Writer) {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %12d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(w, "%-40s count=%d sum=%.6g mean=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g\n",
			n, h.Count, h.Sum, h.Mean, h.P50, h.P90, h.P99, h.Max)
	}
}
