package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"jitgc/internal/trace"
)

var errFake = errors.New("fake device failure")

// fakeDevice logs the calls Drive makes. Requests take service to complete;
// Pending stays true until pendingTicks ticks have run; the call that logs
// failOn fails.
type fakeDevice struct {
	log          []string
	service      time.Duration
	pendingTicks int
	ticks        int
	failOn       string
}

func (f *fakeDevice) record(ev string) error {
	f.log = append(f.log, ev)
	if ev == f.failOn {
		return errFake
	}
	return nil
}

func (f *fakeDevice) Begin() error { return f.record("begin") }

func (f *fakeDevice) StepRequest(r trace.Request) (time.Duration, error) {
	return r.Time + f.service, f.record(fmt.Sprintf("req@%v", r.Time))
}

func (f *fakeDevice) Tick(t time.Duration) error {
	f.ticks++
	return f.record(fmt.Sprintf("tick@%v", t))
}

func (f *fakeDevice) DeviceFreeAt() time.Duration { return 0 }
func (f *fakeDevice) Pending() bool               { return f.ticks < f.pendingTicks }

func TestDrive(t *testing.T) {
	const ms = time.Millisecond
	at := func(times ...time.Duration) []trace.Request {
		reqs := make([]trace.Request, len(times))
		for i, tm := range times {
			reqs[i] = trace.Request{Time: tm, Kind: trace.Read, Pages: 1}
		}
		return reqs
	}
	cases := []struct {
		name   string
		dev    fakeDevice
		reqs   []trace.Request
		closed bool
		drain  bool
		want   []string
		err    bool
	}{
		{
			name: "request on a tick boundary fires before the tick",
			reqs: at(1000*ms, 1500*ms),
			want: []string{"begin", "req@1s", "tick@1s", "req@1.5s"},
		},
		{
			name: "idle periods tick once each",
			reqs: at(3200 * ms),
			want: []string{"begin", "tick@1s", "tick@2s", "tick@3s", "req@3.2s"},
		},
		{
			name:   "closed loop measures think time from the previous completion",
			dev:    fakeDevice{service: 300 * ms},
			reqs:   at(400*ms, 400*ms, 0),
			closed: true,
			want:   []string{"begin", "req@400ms", "tick@1s", "req@1.1s", "req@1.4s"},
		},
		{
			name:  "drain ticks until Pending turns false and not once more",
			dev:   fakeDevice{pendingTicks: 3},
			reqs:  at(200 * ms),
			drain: true,
			want:  []string{"begin", "req@200ms", "tick@1s", "tick@2s", "tick@3s"},
		},
		{
			name: "without drain the run stops at exhaustion",
			dev:  fakeDevice{pendingTicks: 3},
			reqs: at(200 * ms),
			want: []string{"begin", "req@200ms"},
		},
		{
			name:  "nothing pending, nothing to drain",
			drain: true,
			want:  []string{"begin"},
		},
		{
			name: "Begin error aborts",
			dev:  fakeDevice{failOn: "begin"},
			reqs: at(200 * ms),
			want: []string{"begin"},
			err:  true,
		},
		{
			name:  "Fire error aborts with no further calls",
			dev:   fakeDevice{failOn: "req@200ms", pendingTicks: 3},
			reqs:  at(200*ms, 300*ms),
			drain: true,
			want:  []string{"begin", "req@200ms"},
			err:   true,
		},
		{
			name:  "Tick error aborts with no further calls",
			dev:   fakeDevice{failOn: "tick@1s", pendingTicks: 3},
			reqs:  at(200*ms, 1300*ms),
			drain: true,
			want:  []string{"begin", "req@200ms", "tick@1s"},
			err:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := tc.dev
			err := Replay(&dev, tc.reqs, tc.closed, time.Second, tc.drain)
			if tc.err != (err != nil) || (err != nil && !errors.Is(err, errFake)) {
				t.Errorf("err = %v, want failure %v", err, tc.err)
			}
			if !reflect.DeepEqual(dev.log, tc.want) {
				t.Errorf("calls = %v\n want %v", dev.log, tc.want)
			}
		})
	}
}

// TestReplayValidatesBeforeBegin checks a malformed stream is rejected
// before the device is touched, in both loop disciplines.
func TestReplayValidatesBeforeBegin(t *testing.T) {
	unsorted := []trace.Request{
		{Time: 2 * time.Second, Kind: trace.Read, Pages: 1},
		{Time: time.Second, Kind: trace.Read, Pages: 1},
	}
	var dev fakeDevice
	if err := Replay(&dev, unsorted, false, time.Second, false); !errors.Is(err, trace.ErrNotSorted) {
		t.Errorf("open-loop unsorted stream: err = %v, want ErrNotSorted", err)
	}
	if err := Replay(&dev, unsorted, true, time.Second, false); err != nil {
		t.Errorf("closed-loop think times need no order: %v", err)
	}
	dev = fakeDevice{}
	bad := []trace.Request{{Kind: trace.Read, Pages: 0}}
	for _, closed := range []bool{false, true} {
		if err := Replay(&dev, bad, closed, time.Second, false); err == nil {
			t.Errorf("closed=%v: zero-length request accepted", closed)
		}
	}
	if len(dev.log) != 0 {
		t.Errorf("device touched before validation: %v", dev.log)
	}
}
