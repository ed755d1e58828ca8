package comm

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Failure contract. Transports report peer-scoped failures as *PeerError so
// callers can tell WHO failed and WHETHER retrying can help:
//
//   - Timeout: the operation expired against a configured I/O deadline
//     (tcpnet Config.IOTimeout, InprocFabric.SetIOTimeout) without touching
//     the stream. The peer may be slow, stalled or dead.
//   - Transient: the fault was injected or detected BEFORE the operation had
//     any effect on the stream, so reissuing the exact same operation is
//     safe and may succeed (a flapping link, a partition window). Transports
//     must never mark an error transient after bytes have moved — a partial
//     frame is a sticky stream corruption, not a retryable blip.
//
// The collectives retry transient errors automatically under the
// communicator's RetryPolicy (SetRetry) with exponential backoff; everything
// else fails fast up through Wait/WaitAll to the caller.

// ErrPeerDead marks operations addressed to (or issued by) a rank that has
// crashed or been killed.
var ErrPeerDead = errors.New("comm: peer dead")

// ErrGroupStop marks a cooperative, group-wide stop: every rank returns an
// error wrapping it from the same synchronization point (e.g. a training
// pause at a checkpoint boundary). Launch joins the remaining ranks instead
// of fail-fast tearing the fabric down — the first rank out of the final
// collective would otherwise close the fabric under its peers'
// still-draining barrier messages.
var ErrGroupStop = errors.New("comm: cooperative group stop")

// Launch is every group runner's launch loop: it runs body on one goroutine
// per communicator and waits for all of them. The first failure that does
// not wrap ErrGroupStop calls teardown, once, so no peer can hang on a rank
// that is gone. The result joins every rank's error, labelled "rank N: ", in
// the order the ranks failed, so the root cause comes first; it is nil when
// every rank returned nil.
func Launch(cs []*Communicator, teardown func(), body func(*Communicator) error) error {
	var (
		mu   sync.Mutex
		errs []error
		once sync.Once
		wg   sync.WaitGroup
	)
	for _, c := range cs {
		wg.Add(1)
		go func(c *Communicator) {
			defer wg.Done()
			err := body(c)
			if err == nil {
				return
			}
			mu.Lock()
			errs = append(errs, fmt.Errorf("rank %d: %w", c.Rank(), err))
			mu.Unlock()
			if !errors.Is(err, ErrGroupStop) {
				once.Do(teardown)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// PeerError is a failure scoped to one peer link operation.
type PeerError struct {
	// Rank is the peer whose link failed (-1 when unknown, e.g. during the
	// mesh handshake before identities are established).
	Rank int
	// Op names the failed operation: "send", "recv" or "handshake".
	Op string
	// Timeout reports expiry of a configured I/O deadline.
	Timeout bool
	// Transient reports that the operation had no stream effect and may be
	// retried verbatim.
	Transient bool
	// Err is the underlying cause.
	Err error
}

func (e *PeerError) Error() string {
	attrs := ""
	if e.Timeout {
		attrs += " timeout"
	}
	if e.Transient {
		attrs += " transient"
	}
	if e.Err != nil {
		return fmt.Sprintf("comm: peer %d %s%s: %v", e.Rank, e.Op, attrs, e.Err)
	}
	return fmt.Sprintf("comm: peer %d %s%s failed", e.Rank, e.Op, attrs)
}

func (e *PeerError) Unwrap() error { return e.Err }

// IsTransient reports whether err carries a retryable *PeerError anywhere in
// its chain.
func IsTransient(err error) bool {
	var pe *PeerError
	return errors.As(err, &pe) && pe.Transient
}

// RetryPolicy bounds the automatic resend of transient peer failures.
// The zero value disables retry (one attempt, fail fast).
type RetryPolicy struct {
	// Attempts is the total number of tries (1 = no retry; 0 behaves as 1).
	Attempts int
	// Backoff is the sleep before the first retry; it doubles per retry.
	Backoff time.Duration
	// MaxBackoff caps the doubled sleep (0 = uncapped).
	MaxBackoff time.Duration
}

// DefaultRetry is a policy sized for the fault scenarios faultnet injects:
// ~10 tries backing off 1 ms → 50 ms covers a multi-tens-of-milliseconds
// link-down window (flap duty cycles, partition intervals) without retrying
// forever.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{Attempts: 10, Backoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond}
}

// sleep blocks for the backoff of the given 0-based retry attempt.
func (p RetryPolicy) sleep(attempt int) {
	d := p.Backoff
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	time.Sleep(d)
}

// SetRetry installs the retry policy for transient peer failures on this
// communicator and every communicator derived from it so far (Split groups,
// SetConcurrency contexts, hierarchy tiers); communicators derived later
// inherit it at creation. Call it at setup time, before overlapping work,
// like Split and SetTopology.
func (c *Communicator) SetRetry(p RetryPolicy) {
	c.retry = p
	for _, ch := range c.children {
		ch.SetRetry(p)
	}
}

// Stepper is the optional capability of transports that track the training
// step counter for step-scoped fault scenarios (faultnet's crash/stall
// rules). The training loop calls Communicator.AdvanceStep once at the top
// of every step, before that step's boundary (drain poll, snapshot).
type Stepper interface {
	AdvanceStep()
}

// AdvanceStep notifies the transport that a new training step is beginning.
// On transports without the Stepper capability it is a no-op, so callers may
// invoke it unconditionally.
func (c *Communicator) AdvanceStep() {
	if s, ok := c.t.(Stepper); ok {
		s.AdvanceStep()
	}
}
