// Poor-SQL scenario (§II category 2): a newly deployed statement with a
// pathological plan (huge examined-rows footprint) burns CPU and slows the
// whole instance. PinSQL pinpoints it, and the repairing module's query
// optimization (automatic index + rewrite) restores the metrics — the
// before/after gains mirror Table II.
//
//	go run ./examples/poorsql
package main

import (
	"fmt"
	"log"

	"pinsql"
)

func main() {
	world := pinsql.NewDemoWorld(5)
	incident := world.InjectPoorSQL(world.Services[4], "orders", 18, 700_000)

	run, err := pinsql.Simulate(world, pinsql.SimOptions{DurationSec: 1500, Seed: 13})
	if err != nil {
		log.Fatal(err)
	}
	detected := run.DetectCases()
	if len(detected) == 0 {
		log.Fatal("no anomaly detected")
	}
	c := detected[0]
	fmt.Printf("anomaly window [%d s, %d s): CPU %.1f%% → %.1f%%\n\n",
		c.AS, c.AE,
		c.Frame.CPUUsage.Slice(0, c.AS).Mean(),
		c.Frame.CPUUsage.Slice(c.AS, c.AE).Mean())

	d := run.Diagnose(c)
	if len(d.RSQLs) == 0 {
		log.Fatal("no R-SQL pinpointed")
	}
	top := d.RSQLs[0]
	fmt.Printf("pinpointed R-SQL: %s (injected: %s)\n", top.ID, incident.RSQLs[0])
	before := run.Frame().Template(top.ID)
	fmt.Printf("  statement: %s\n", before.Meta.Text)
	fmt.Printf("  mean response time %.1f ms, mean examined rows %.0f\n\n", before.MeanRT(), before.MeanRows())

	// Execute the repair (throttle + query optimization) and replay the
	// same window to measure the gain.
	executed := run.Repair(c, d, true)
	for _, s := range executed {
		fmt.Printf("executed: %s on %s\n", s.Action, s.Template)
	}
	// Lift the diagnostic throttle so the optimization effect is measured
	// cleanly.
	run.Instance.ClearThrottle(string(top.ID))

	rerun, err := pinsql.Simulate(world, pinsql.SimOptions{DurationSec: 1500, Seed: 13, Topic: "after"})
	if err != nil {
		log.Fatal(err)
	}
	after := rerun.Frame().Template(top.ID)
	if after == nil {
		log.Fatal("optimized statement missing from replay")
	}
	fmt.Printf("\nafter optimization:\n")
	fmt.Printf("  mean response time %.1f ms (gain %.1f%%)\n",
		after.MeanRT(), 100*(before.MeanRT()-after.MeanRT())/before.MeanRT())
	fmt.Printf("  mean examined rows %.0f (gain %.1f%%)\n",
		after.MeanRows(), 100*(before.MeanRows()-after.MeanRows())/before.MeanRows())
	fmt.Printf("  instance CPU in the old anomaly window: %.1f%%\n",
		rerun.Frame().CPUUsage.Slice(c.AS, c.AE).Mean())
}
