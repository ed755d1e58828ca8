package main

import (
	"slices"
	"syscall"
)

// The sandboxes this benchmark is sized for are virtual machines on a shared
// host, and the host interferes in two ways:
//
//   - It takes the CPUs away, for milliseconds to minutes. The guest sees
//     that as steal time in /proc/stat; bench.steal_share reports it.
//   - It runs a neighbour on the sibling hardware thread. That shows nowhere
//     in the guest — 0 % steal, an idle guest — but slows arithmetic by two
//     thirds: a fixed loop of float multiply-adds takes 1.52 ms or 2.55 ms.
//     The box flips between the two speeds every few tenths of a second to
//     every few minutes.
//
// The sync workloads move memory and bytes on the wire; the two speeds are
// 10–20 % apart on them, less than the bounds, and they report medians over
// the run. The train workloads are arithmetic: train-vgg16 takes 19 ms or
// 30 ms per step and train-lstm-pipeline 4.9 ms or 7.2 ms. A median over a
// run lands anywhere between the two, ten runs spread by 17–36 %, and no
// bound the contract allows holds that. The interference only ever adds time,
// so those two report the undisturbed end of what a run measured: its fastest
// step and its fastest set-up. Among everything tried on
// recorded runs — low percentiles of steps, of window medians, of stretches —
// the plain minimum was the one that kept both its spread over ten runs
// (0.5–19 %) and its level across quiet and busy hours (17.0–20.9 ms on
// train-vgg16, against 18.6–29.9 ms for the median). Every reported value is
// a time as measured. What the minimum gives up: it does not see a slow-down
// that spares some steps. The per-layer list covers that without a bound:
// cluster.step_ms_p50 and cluster.step_ms_p95 are the plain median and 95th
// percentile over all steps, and cluster.steps_per_s is taken over whole
// cycles of the run's periodic work, evaluation and checkpoint stalls
// included. (steps_per_s was an end-to-end metric at first; its fastest
// 64-step stretch needs 1.2 s of undisturbed time on train-vgg16, spread by
// up to 23 % over ten runs, and was demoted rather than given a wider bound.)

// timing reduces the times a pass measured to the one the workload reports:
// the median, or the fastest on a workload that reads its undisturbed end.
func (w *workload) timing(xs []float64) float64 {
	if w.fastest && len(xs) > 0 {
		return slices.Min(xs)
	}
	return median(xs)
}

// rate is timing for throughputs.
func (w *workload) rate(xs []float64) float64 {
	if w.fastest && len(xs) > 0 {
		return slices.Max(xs)
	}
	return median(xs)
}

// cpuClock reads the aggregate "cpu" line of /proc/stat. Where the file is
// missing every reading is zero.
type cpuClock struct {
	fd  int
	buf [256]byte
}

func newCPUClock() *cpuClock {
	fd, err := syscall.Open("/proc/stat", syscall.O_RDONLY, 0)
	if err != nil {
		fd = -1
	}
	return &cpuClock{fd: fd}
}

func (c *cpuClock) close() {
	if c.fd >= 0 {
		syscall.Close(c.fd)
	}
}

// read returns the steal and the total jiffies since boot, over all CPUs.
func (c *cpuClock) read() (steal, total int64) {
	if c.fd < 0 {
		return 0, 0
	}
	n, err := syscall.Pread(c.fd, c.buf[:], 0)
	if err != nil {
		return 0, 0
	}
	return parseCPULine(c.buf[:n])
}

// parseCPULine reads the first line of /proc/stat:
// "cpu  user nice system idle iowait irq softirq steal guest guest_nice".
func parseCPULine(line []byte) (steal, total int64) {
	if len(line) < 5 {
		return 0, 0
	}
	field, v, in := 0, int64(0), false
	for _, ch := range line[4:] {
		switch {
		case ch >= '0' && ch <= '9':
			v, in = v*10+int64(ch-'0'), true
		case in:
			field++
			if field <= 8 { // guest time is already inside user
				total += v
			}
			if field == 8 {
				steal = v
			}
			v, in = 0, false
		}
		if ch == '\n' {
			break
		}
	}
	return steal, total
}

// stolen accumulates the CPU clock over the stretches a pass measures.
type stolen struct{ steal, total int64 }

func (s *stolen) add(steal0, total0, steal1, total1 int64) {
	s.steal += steal1 - steal0
	s.total += total1 - total0
}

func (s *stolen) merge(o stolen) { s.add(0, 0, o.steal, o.total) }

// share is the part of the CPU time the hypervisor took.
func (s stolen) share() float64 {
	if s.total <= 0 {
		return 0
	}
	return float64(s.steal) / float64(s.total)
}
