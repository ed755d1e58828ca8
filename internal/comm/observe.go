package comm

// SetSendObserver installs a per-send timing beacon: after every successful
// point-to-point send, f receives the destination's global rank, the payload
// size in bytes and the wall seconds the send took (including transient-error
// retries). The observer is propagated to existing derived communicators
// (Split groups, concurrency contexts) and inherited by ones created later,
// mirroring SetRetry. Install it at setup time, before the communicator is
// used; f must be safe for concurrent calls and should not block or allocate
// — it runs on the hot send path.
func (c *Communicator) SetSendObserver(f func(to, nBytes int, sec float64)) {
	c.sendObs = f
	for _, ch := range c.children {
		ch.SetSendObserver(f)
	}
}
