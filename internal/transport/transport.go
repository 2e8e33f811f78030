// Package transport defines the messages that flow between P2B components
// (agents, shuffler, server) and their binary encodings: the P2B1 report
// batch stream (wire.go), the P2BM model (modelwire.go) and the Reader
// single-message decoders share (reader.go), plus the retry policy every
// HTTP sender shares (retry.go). The HTTP carriers live elsewhere: the
// device SDK's client in package agent, the node's routes in
// internal/httpapi. The population simulator passes messages in process,
// through agent.Loopback.
//
// Envelopes deliberately carry the identifying metadata a real network
// stack would expose (device ID, source address, timestamp) so that the
// shuffler's anonymization step has something real to strip, and so tests
// can prove it was stripped.
package transport

import (
	"errors"
	"fmt"
	"sync"
)

// Tuple is the encoded interaction report the private pipeline transmits:
// (y_t, a_t, r_t,a) in the paper's notation.
type Tuple struct {
	Code   int     `json:"code"`
	Action int     `json:"action"`
	Reward float64 `json:"reward"`
}

// RawTuple is the unencoded report of the non-private baseline: the context
// in its original form.
type RawTuple struct {
	Context []float64 `json:"context"`
	Action  int       `json:"action"`
	Reward  float64   `json:"reward"`
}

// Metadata identifies the sender of an envelope. The shuffler must remove
// every field of it before anything reaches the server.
type Metadata struct {
	DeviceID string `json:"device_id"`
	Addr     string `json:"addr"`
	SentAt   int64  `json:"sent_at"` // unix nanoseconds
}

// IsZero reports whether the metadata carries no identifying information.
func (m Metadata) IsZero() bool {
	return m.DeviceID == "" && m.Addr == "" && m.SentAt == 0
}

// Envelope is a tuple in flight together with its transport metadata.
type Envelope struct {
	Meta  Metadata `json:"meta"`
	Tuple Tuple    `json:"tuple"`
}

// ErrClosed is returned when sending on a closed bus.
var ErrClosed = errors.New("transport: bus is closed")

// Bus is an in-process, many-producer single-consumer channel carrier for
// envelopes. Send is safe for concurrent use; Close is idempotent.
type Bus struct {
	ch     chan Envelope
	mu     sync.Mutex
	closed bool
}

// NewBus returns a bus with the given buffer capacity.
func NewBus(buffer int) *Bus {
	if buffer < 0 {
		panic(fmt.Sprintf("transport: negative buffer %d", buffer))
	}
	return &Bus{ch: make(chan Envelope, buffer)}
}

// Send enqueues the envelope, blocking when the buffer is full. It returns
// ErrClosed after Close.
func (b *Bus) Send(e Envelope) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	// Holding the lock across the channel send keeps Close safe: close only
	// proceeds when no sender is mid-send. The buffer keeps contention low.
	defer b.mu.Unlock()
	b.ch <- e
	return nil
}

// TrySend enqueues the envelope without blocking. It reports whether the
// envelope was accepted; false means the buffer was full or the bus closed.
func (b *Bus) TrySend(e Envelope) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	select {
	case b.ch <- e:
		return true
	default:
		return false
	}
}

// Receive returns the consumer side of the bus. The channel is closed after
// Close once drained.
func (b *Bus) Receive() <-chan Envelope { return b.ch }

// Close shuts the bus down. Subsequent Sends fail with ErrClosed; the
// receive channel closes after the remaining buffered envelopes drain.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.ch)
	}
}
