// Asyncbroadcast: eight in-process nodes push–pull broadcast a real
// payload until everyone holds it, in delivery orders drawn from a
// schedule seed that replays the run — the transport seam in 50 lines.
//
//	go run ./examples/asyncbroadcast
package main

import (
	"fmt"

	"gossip"
)

func main() {
	const n = 8
	const seed = 42
	payload := []byte("the rumor: gossip spreads in O(log n) steps")

	// Eight nodes on a complete topology; node 0 holds the rumor.
	g := gossip.NewComplete(n)
	set := gossip.NewBroadcastMachines(g, 0, gossip.PushAndPull, payload, seed)

	// The schedule seed draws each step's node and caller orders.
	const schedule = 3
	t := gossip.NewSeededTransport(set.Machines(), schedule)
	fmt.Printf("schedule seed %d\n", schedule)

	d := &gossip.MachineDriver{
		T:    t,
		Done: set.Complete,
		AfterStep: func(step int32, tl gossip.StepTally) {
			fmt.Printf("step %d: %2d/%d informed  (%d channels, %d pushes, %d pulls answered)\n",
				step, set.InformedCount(), n, tl.Opened, tl.Pushes, tl.Responses)
		},
	}
	steps := d.Run()

	fmt.Printf("\nbroadcast complete after %d steps\n", steps)
	for v := int32(0); v < n; v++ {
		got, _ := set.PayloadAt(v).([]byte)
		fmt.Printf("  node %d: informed at step %d, payload %q\n",
			v, set.InformedAt(v), got)
	}
}
