package comm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/comm/faultnet"
	"a2sgd/internal/comm/tcpnet"
)

// launchRunners are the four ways a group reaches comm.Launch: the two bare
// fabrics and faultnet's runner with an active scenario on each.
var launchRunners = []struct {
	name string
	run  func(size int, body func(*comm.Communicator) error) error
}{
	{"inproc", comm.RunGroup},
	{"tcp", tcpnet.RunGroup},
	{"faultnet-inproc", faultnet.GroupRunner(faultnet.MustParse("delay(link=*, alpha=1us)"), false)},
	{"faultnet-tcp", faultnet.GroupRunner(faultnet.MustParse("delay(link=*, alpha=1us)"), true)},
}

// TestLaunchContract pins the launcher's contract on every runner:
//
//   - stop: a rank returning an error that wraps ErrGroupStop must NOT
//     fail-fast tear the fabric down, because its peers may still be draining
//     the last collective. Rank 1 contributes to a reduce (buffered send) and
//     stops immediately; well after rank 1 has returned, rank 0 collects the
//     contribution and sends its own last message — with a teardown the
//     send fails on every fabric (and on TCP the receive too).
//   - fail-fast: rank 1 fails while rank 0 blocks in a receive with no
//     deadline; the teardown must unblock it, and the joined error must lead
//     with the rank that failed first.
//   - success: a group whose ranks all return nil returns nil.
func TestLaunchContract(t *testing.T) {
	boom := errors.New("boom")
	for _, rc := range launchRunners {
		t.Run(rc.name+"/stop", func(t *testing.T) {
			var rank0Err error
			err := rc.run(2, func(c *comm.Communicator) error {
				v := []float32{1}
				if c.Rank() == 1 {
					if err := c.Reduce(v, 0); err != nil {
						return err
					}
					return fmt.Errorf("pausing: %w", comm.ErrGroupStop)
				}
				time.Sleep(50 * time.Millisecond)
				if err := c.Reduce(v, 0); err != nil {
					rank0Err = fmt.Errorf("reduce after peer stopped: %w", err)
					return rank0Err
				}
				if err := c.Broadcast(v, 0); err != nil {
					rank0Err = fmt.Errorf("send after peer stopped: %w", err)
					return rank0Err
				}
				return nil
			})
			if rank0Err != nil {
				t.Fatal(rank0Err)
			}
			if !errors.Is(err, comm.ErrGroupStop) {
				t.Fatalf("group error = %v, want ErrGroupStop", err)
			}
		})
		t.Run(rc.name+"/fail-fast", func(t *testing.T) {
			start := time.Now()
			err := rc.run(2, func(c *comm.Communicator) error {
				if c.Rank() == 1 {
					time.Sleep(20 * time.Millisecond) // let rank 0 block first
					return boom
				}
				// Rank 1 never sends: only the teardown can end this.
				return c.Broadcast(make([]float32, 4), 1)
			})
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("group took %v to return after a rank failed", elapsed)
			}
			if !errors.Is(err, boom) {
				t.Fatalf("group error = %v, want boom", err)
			}
			if first, _, _ := strings.Cut(err.Error(), "\n"); first != "rank 1: boom" {
				t.Fatalf("first joined error %q, want %q (full: %v)", first, "rank 1: boom", err)
			}
		})
		t.Run(rc.name+"/success", func(t *testing.T) {
			err := rc.run(3, func(c *comm.Communicator) error {
				return c.AllreduceSum(make([]float32, 8), comm.AlgoAuto)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
