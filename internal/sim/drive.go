package sim

import (
	"fmt"
	"time"

	"jitgc/internal/trace"
)

// Device is what the event loop drives: a single Simulator, or anything
// that fans requests out to several (array.Array).
type Device interface {
	// Begin prepares the device for its first event (preconditioning).
	Begin() error
	// StepRequest services one request at its absolute arrival time r.Time
	// and returns the time a closed-loop host may measure its next think
	// time from: the request's completion.
	StepRequest(r trace.Request) (time.Duration, error)
	// Tick runs the write-back boundary at t.
	Tick(t time.Duration) error
	// DeviceFreeAt is the time the device timeline is booked through.
	DeviceFreeAt() time.Duration
	// Pending reports whether work remains that only further ticks can
	// finish (dirty cache pages, maintenance).
	Pending() bool
}

// Source feeds a Device with events other than write-back ticks.
type Source interface {
	// NextAt returns the time of the source's next event given the state of
	// dev, or false once the source is exhausted.
	NextAt(dev Device) (time.Duration, bool)
	// Fire executes that event at t.
	Fire(t time.Duration, dev Device) error
}

// Drive is the event loop: source events interleave with write-back ticks
// every period on one clock, a source event at exactly a tick boundary
// firing first. Once the source is exhausted the ticks continue while drain
// is set and dev has work pending. The first error ends the run.
func Drive(dev Device, src Source, period time.Duration, drain bool) error {
	if err := dev.Begin(); err != nil {
		return err
	}
	for nextTick := period; ; {
		t, ok := src.NextAt(dev)
		switch {
		case ok && t <= nextTick:
			if err := src.Fire(t, dev); err != nil {
				return err
			}
		case ok || (drain && dev.Pending()):
			if err := dev.Tick(nextTick); err != nil {
				return err
			}
			nextTick += period
		default:
			return nil
		}
	}
}

// sliceSource replays a materialized request stream. Open-loop, each
// request's Time is its absolute arrival; closed-loop it is a think time
// after the previous request's completion (see Simulator.RunClosedLoop).
type sliceSource struct {
	reqs   []trace.Request
	closed bool
	next   int
	last   time.Duration // what StepRequest returned for the previous request
}

func (s *sliceSource) NextAt(Device) (time.Duration, bool) {
	if s.next == len(s.reqs) {
		return 0, false
	}
	if s.closed {
		return s.last + s.reqs[s.next].Time, true
	}
	return s.reqs[s.next].Time, true
}

func (s *sliceSource) Fire(t time.Duration, dev Device) (err error) {
	r := s.reqs[s.next]
	r.Time = t
	s.next++
	s.last, err = dev.StepRequest(r)
	return err
}

// Replay validates reqs and drives dev through them, open- or closed-loop.
func Replay(dev Device, reqs []trace.Request, closed bool, period time.Duration, drain bool) error {
	if closed { // think times need not be sorted
		for i, r := range reqs {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("request %d: %w", i, err)
			}
		}
	} else if err := trace.ValidateAll(reqs); err != nil {
		return err
	}
	return Drive(dev, &sliceSource{reqs: reqs, closed: closed}, period, drain)
}
