package core

import (
	"sync"

	"powder/internal/obs"
)

// captureSink records every emitted event in memory, for tests that
// assert on the event stream (rollbacks, escalations, stop reasons)
// without going through a serialization sink.
type captureSink struct {
	mu     sync.Mutex
	events []obs.Event
}

// Emit records the event.
func (c *captureSink) Emit(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a snapshot of the captured events in emission order.
func (c *captureSink) Events() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.events...)
}

// Count returns how many events with the given name were captured.
func (c *captureSink) Count(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Name == name {
			n++
		}
	}
	return n
}
