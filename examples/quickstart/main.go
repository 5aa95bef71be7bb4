// Quickstart: simulate a cloud database instance with a lock-storm anomaly,
// detect it, and let PinSQL pinpoint the root cause statement.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pinsql"
)

func main() {
	// 1. Build a synthetic microservice workload and inject an anomaly:
	//    a burst of hot-row UPDATEs over [600 s, 900 s) that will block
	//    the SELECTs reading the same orders rows.
	world := pinsql.NewDemoWorld(1)
	storm := world.InjectLockStorm(world.Services[2], "orders", 7, 600_000, 900_000)
	fmt.Printf("injected lock storm; true R-SQL templates: %v\n\n", storm.RSQLs)

	// 2. Simulate 1500 s of instance time with the collection pipeline
	//    attached.
	run, err := pinsql.Simulate(world, pinsql.SimOptions{DurationSec: 1500, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Detect anomalies on the collected performance metrics.
	detected := run.DetectCases()
	if len(detected) == 0 {
		log.Fatal("no anomaly detected — try another seed")
	}
	c := detected[0]
	fmt.Printf("detected %s over [%d s, %d s)\n\n", c.Phenomenon.Rule, c.AS, c.AE)

	// 4. Diagnose: estimate per-template sessions, rank H-SQLs, pinpoint
	//    R-SQLs.
	d := run.Diagnose(c)
	fmt.Println("top High-impact SQLs:")
	for i, s := range d.HSQLs {
		if i == 3 {
			break
		}
		fmt.Printf("  %d. %s  impact=%+.2f\n", i+1, s.ID, s.Impact)
	}
	fmt.Println("\ntop Root Cause SQLs:")
	for i, r := range d.RSQLs {
		if i == 3 {
			break
		}
		text := ""
		if ts := run.Frame().Template(r.ID); ts != nil {
			text = ts.Meta.Text
		}
		fmt.Printf("  %d. %s  score=%+.2f verified=%v\n     %s\n", i+1, r.ID, r.Score, r.Verified, text)
	}

	truth := map[pinsql.TemplateID]bool{}
	for _, id := range storm.RSQLs {
		truth[id] = true
	}
	if len(d.RSQLs) > 0 && truth[d.RSQLs[0].ID] {
		fmt.Println("\n✓ PinSQL pinpointed an injected root cause.")
	} else {
		fmt.Println("\n✗ top candidate differs from the injected root causes.")
	}

	// 5. Ask the repairing module what to do (suggestions only).
	for _, s := range run.Repair(c, d, false) {
		fmt.Printf("suggested action: %s on %s (%.1f)\n", s.Action, s.Template, s.Value)
	}
}
