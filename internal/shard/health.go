package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// DefaultHealthMultiple is the default liveness window as a multiple of the
// heartbeat interval: a shard with no heartbeat for this many intervals is
// considered unhealthy.
const DefaultHealthMultiple = 10

// Health tracks per-shard liveness from heartbeat arrivals. A shard is
// healthy while a heartbeat has been observed within multiple×interval; a
// router skips unhealthy shards for searches and refuses writes to them
// with UnhealthyError. The zero interval disables tracking (every shard is
// always healthy). All methods are safe for concurrent use.
type Health struct {
	window   time.Duration
	lastSeen []atomic.Int64 // nanoseconds of most recent heartbeat
}

// NewHealth creates a tracker for k shards with the given heartbeat
// interval and window multiple (0 means DefaultHealthMultiple). Shards
// start with now as their last-seen time, granting a full window of grace
// before the first heartbeat must arrive. interval 0 disables tracking.
func NewHealth(k int, interval time.Duration, multiple int, now time.Duration) *Health {
	if multiple <= 0 {
		multiple = DefaultHealthMultiple
	}
	h := &Health{
		window:   interval * time.Duration(multiple),
		lastSeen: make([]atomic.Int64, k),
	}
	for i := range h.lastSeen {
		h.lastSeen[i].Store(int64(now))
	}
	return h
}

// Window returns the liveness window (0 when tracking is disabled).
func (h *Health) Window() time.Duration {
	if h == nil {
		return 0
	}
	return h.window
}

// Observe records a heartbeat arrival from shard i at time now.
func (h *Health) Observe(i int, now time.Duration) {
	if h == nil {
		return
	}
	h.lastSeen[i].Store(int64(now))
}

// Healthy reports whether shard i has heartbeated within the window. A nil
// tracker or a zero interval reports every shard healthy.
func (h *Health) Healthy(i int, now time.Duration) bool {
	if h == nil || h.window == 0 {
		return true
	}
	return now-time.Duration(h.lastSeen[i].Load()) <= h.window
}

// ErrUnhealthy is the sentinel matched by errors.Is for writes routed to a
// shard that has stopped heartbeating.
var ErrUnhealthy = errors.New("shard unhealthy: no recent heartbeat")

// UnhealthyError reports a write whose owning shard is unhealthy. It
// matches ErrUnhealthy under errors.Is and carries the shard index.
type UnhealthyError struct {
	Shard int
}

func (e *UnhealthyError) Error() string {
	return fmt.Sprintf("shard %d unhealthy: no recent heartbeat", e.Shard)
}

// Is makes errors.Is(err, ErrUnhealthy) succeed.
func (e *UnhealthyError) Unwrap() error { return ErrUnhealthy }
