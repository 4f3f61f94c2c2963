package ch3_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/rdmachan"
)

// railDown downs one rail on both nodes at the given offset.
func railDown(at des.Time, rail int) *fault.Plan {
	return &fault.Plan{Events: []fault.Event{
		{At: at, Kind: fault.HCADown, Node: 0, Rail: rail},
		{At: at, Kind: fault.HCADown, Node: 1, Rail: rail},
	}}
}

// TestRendezvousScheduleWitness pins the exact schedule of every
// rendezvous carrier configuration: the ring connection single-rail,
// striped, and striped with a rail lost mid-transfer; the SRQ connection
// single-rail and re-dialing after its rail dies. Event count, schedule
// fingerprint, final simulated time and payload checksum must all match
// the constants, so any refactor of the rendezvous protocol that moves a
// single event shows here.
//
// The single-rail ring checksum differs from the others: that path
// completes the send when its FIN is staged, before the unsignaled RDMA
// write has read the source buffer, so the sender's next-round rewrite
// leaks into rounds 0 and 1 (ROADMAP, "Fix early completion of
// single-rail direct rendezvous"). The constants pin the schedule as it
// stands, defect included.
func TestRendezvousScheduleWitness(t *testing.T) {
	srq := rdmachan.Config{UseSRQ: true}
	cases := []struct {
		name   string
		cfg    cluster.Config
		events uint64
		fp     uint64
		took   des.Time
		sum    uint64
	}{
		{"ch3/rails=1", cluster.Config{Transport: cluster.TransportCH3, RailsPerNode: 1},
			488, 0x2981cafbd681167c, 1359355, 0x1d75b3f044a407eb},
		{"ch3/rails=1/resilient", cluster.Config{Transport: cluster.TransportCH3, RailsPerNode: 1,
			Fault: &fault.Plan{}},
			488, 0x2981cafbd681167c, 1359355, 0x1d75b3f044a407eb},
		{"ch3/rails=2", cluster.Config{Transport: cluster.TransportCH3, RailsPerNode: 2},
			1048, 0x1f9014b7cd3f6e55, 1181927, 0xf4852c9111b007eb},
		{"ch3/rails=2/resilient", cluster.Config{Transport: cluster.TransportCH3, RailsPerNode: 2,
			Fault: &fault.Plan{}},
			1048, 0x1f9014b7cd3f6e55, 1181927, 0xf4852c9111b007eb},
		{"ch3/rails=2/rail1-down", cluster.Config{Transport: cluster.TransportCH3, RailsPerNode: 2,
			Fault: railDown(300*des.Microsecond, 1)},
			714, 0x20c75bfaec67e605, 1472825, 0xf4852c9111b007eb},
		{"srq-lazy/rails=1", cluster.Config{Transport: cluster.TransportZeroCopy,
			ConnectMode: cluster.ConnectLazy, RailsPerNode: 1, Chan: srq},
			543, 0xdabdb5d7b717b4a8, 1266236, 0xf4852c9111b007eb},
		{"srq-lazy/rails=1/resilient", cluster.Config{Transport: cluster.TransportZeroCopy,
			ConnectMode: cluster.ConnectLazy, RailsPerNode: 1, Chan: srq, Fault: &fault.Plan{}},
			561, 0x331ef7b298d54d32, 1296755, 0xf4852c9111b007eb},
		{"srq-lazy/rails=2/rail0-down", cluster.Config{Transport: cluster.TransportZeroCopy,
			ConnectMode: cluster.ConnectLazy, RailsPerNode: 2, Chan: srq,
			Fault: railDown(300*des.Microsecond, 0)},
			652, 0xfaff1b3307e4ce9a, 1522355, 0xf4852c9111b007eb},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got := rendezvousExchange(t, tc.cfg)
			if got.events != tc.events || got.fp != tc.fp || got.took != tc.took || got.sum != tc.sum {
				t.Fatalf("schedule drifted: events %d fp %#x took %d sum %#x, want %d %#x %d %#x",
					got.events, got.fp, got.took, got.sum, tc.events, tc.fp, tc.took, tc.sum)
			}
		})
	}
}
