package obs

// Concurrency hammer for the metrics registry: with the service layer,
// several optimization jobs emit into one shared registry at once, so
// counters, histograms, phase sets, and snapshotting must hold up under
// parallel writers. Run with -race (CI does).

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

const hammerGoroutines = 8

func TestRegistryConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Interleave creation and update of a small shared name
				// space so the double-checked registration path races.
				reg.Counter(fmt.Sprintf("c.%d", i%7)).Inc()
				reg.Counter("c.shared").Add(2)
				reg.Histogram(fmt.Sprintf("h.%d", i%5)).Observe(float64(i%97) / 13)
				reg.Histogram("h.shared").Observe(float64(g))
				if i%250 == 0 {
					// Concurrent snapshots must see a consistent registry.
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counters["c.shared"]; got != int64(2*perG*hammerGoroutines) {
		t.Fatalf("c.shared = %d, want %d", got, 2*perG*hammerGoroutines)
	}
	var sum int64
	for i := 0; i < 7; i++ {
		sum += snap.Counters[fmt.Sprintf("c.%d", i)]
	}
	if sum != int64(perG*hammerGoroutines) {
		t.Fatalf("sharded counters sum to %d, want %d", sum, perG*hammerGoroutines)
	}
	h := snap.Histograms["h.shared"]
	if h.Count != int64(perG*hammerGoroutines) {
		t.Fatalf("h.shared count = %d, want %d", h.Count, perG*hammerGoroutines)
	}
	wantSum := 0.0
	for g := 0; g < hammerGoroutines; g++ {
		wantSum += float64(g) * perG
	}
	if diff := h.Sum - wantSum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("h.shared sum = %v, want %v", h.Sum, wantSum)
	}
	if h.Max != float64(hammerGoroutines-1) {
		t.Fatalf("h.shared max = %v, want %d", h.Max, hammerGoroutines-1)
	}
}

func TestPhaseSetConcurrentTimers(t *testing.T) {
	ph := NewPhaseSet()
	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ph.Add(fmt.Sprintf("phase-%d", i%3), time.Nanosecond)
				ph.Add("manual", time.Microsecond)
				if i%100 == 0 {
					_ = ph.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := ph.Snapshot()
	manual, ok := snap.Get("manual")
	if !ok || manual.Count != int64(500*hammerGoroutines) {
		t.Fatalf("manual phase count = %+v, want %d segments", manual, 500*hammerGoroutines)
	}
	var segs int64
	for i := 0; i < 3; i++ {
		if p, ok := snap.Get(fmt.Sprintf("phase-%d", i)); ok {
			segs += p.Count
		}
	}
	if segs != int64(500*hammerGoroutines) {
		t.Fatalf("timed segments = %d, want %d", segs, 500*hammerGoroutines)
	}
}

// TestHubConcurrentSubscribeReplayDrop hammers one Hub with parallel
// emitters, churning subscribers (replay + cancel), drop-counter swaps,
// and snapshot readers. The replay cap is tiny so the drop-accounting
// paths run constantly.
func TestHubConcurrentSubscribeReplayDrop(t *testing.T) {
	const (
		limit = 64
		perG  = 500
	)
	hub := NewHub(limit)
	reg := NewRegistry()
	ctrA := reg.Counter("drops.a")
	ctrB := reg.Counter("drops.b")

	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0, 1: // emitters
				for i := 0; i < perG; i++ {
					hub.Emit(Event{Name: "hammer", Time: time.Now(), Fields: Fields{"g": g, "i": i}})
				}
			case 2: // subscribers: replay a prefix, then cancel (twice — idempotent)
				for i := 0; i < 50; i++ {
					ch, cancel := hub.Subscribe()
					for j := 0; j < 20; j++ {
						if _, ok := <-ch; !ok {
							break
						}
					}
					cancel()
					cancel()
					// Drain whatever was buffered before the cancel closed it.
					for range ch {
					}
				}
			case 3: // drop-counter swaps + snapshot readers
				for i := 0; i < 200; i++ {
					switch i % 3 {
					case 0:
						hub.SetDropCounter(ctrA)
					case 1:
						hub.SetDropCounter(ctrB)
					default:
						hub.SetDropCounter(nil)
					}
					_ = hub.Events()
					_ = hub.Dropped()
				}
			}
		}(g)
	}
	wg.Wait()

	emitters := 0
	for g := 0; g < hammerGoroutines; g++ {
		if g%4 <= 1 {
			emitters++
		}
	}
	emitted := emitters * perG
	if got := len(hub.Events()); got != limit {
		t.Fatalf("replay buffer holds %d events, want the cap %d", got, limit)
	}
	// Every emit past the cap is a counted drop; slow subscribers add more.
	if hub.Dropped() < int64(emitted-limit) {
		t.Fatalf("Dropped = %d, want >= %d", hub.Dropped(), emitted-limit)
	}
	// The registry counters mirror only the drops that happened while they
	// were attached, so they can never exceed the hub's own count.
	if ctrA.Value()+ctrB.Value() > hub.Dropped() {
		t.Fatalf("mirrored drops %d+%d exceed hub total %d", ctrA.Value(), ctrB.Value(), hub.Dropped())
	}

	hub.Close()
	hub.Emit(Event{Name: "after-close"}) // must be a silent no-op
	ch, cancel := hub.Subscribe()
	defer cancel()
	n := 0
	for range ch {
		n++
	}
	if n != limit {
		t.Fatalf("post-close subscriber replayed %d events, want %d", n, limit)
	}
}

// TestHubCloseRace closes the hub while emitters and subscribers are
// still running: every subscriber channel must terminate and nothing may
// panic or race.
func TestHubCloseRace(t *testing.T) {
	hub := NewHub(32)
	var wg sync.WaitGroup
	for g := 0; g < hammerGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				for i := 0; i < 300; i++ {
					hub.Emit(Event{Name: fmt.Sprintf("e%d", g), Time: time.Now()})
				}
			case 1:
				for i := 0; i < 30; i++ {
					ch, cancel := hub.Subscribe()
					for range ch {
					}
					cancel()
				}
			default:
				hub.Close() // idempotent, races with everything above
			}
		}(g)
	}
	wg.Wait()
	if got := len(hub.Events()); got > 32 {
		t.Fatalf("replay buffer overflowed its cap: %d > 32", got)
	}
}
