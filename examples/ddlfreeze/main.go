// Metadata-lock scenario (§II category 3-i): a long ALTER TABLE takes the
// table's metadata lock; every statement touching the table piles up with
// "Waiting for table metadata lock", so the active session explodes while
// CPU stays idle — the signature that separates MDL incidents from CPU
// incidents.
//
//	go run ./examples/ddlfreeze
package main

import (
	"fmt"
	"log"

	"pinsql"
)

func main() {
	world := pinsql.NewDemoWorld(9)
	incident := world.InjectMDL("orders", 800_000, 120_000) // 2-minute DDL at t=800 s

	run, err := pinsql.Simulate(world, pinsql.SimOptions{DurationSec: 1400, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	detected := run.DetectCases()
	if len(detected) == 0 {
		log.Fatal("no anomaly detected")
	}
	c := detected[0]

	fmt.Printf("DDL: ALTER TABLE orders ... over [800 s, 920 s)\n")
	fmt.Printf("detected %s over [%d s, %d s)\n\n", c.Phenomenon.Rule, c.AS, c.AE)
	fmt.Printf("%-28s %10s %10s\n", "", "baseline", "freeze")
	fmt.Printf("%-28s %10.2f %10.2f\n", "active session (mean)",
		c.Frame.ActiveSession.Slice(0, 800).Mean(),
		c.Frame.ActiveSession.Slice(c.AS, c.AE).Mean())
	fmt.Printf("%-28s %10.1f %10.1f\n", "cpu usage %% (mean)",
		c.Frame.CPUUsage.Slice(0, 800).Mean(),
		c.Frame.CPUUsage.Slice(c.AS, c.AE).Mean())
	fmt.Printf("%-28s %10.0f %10.0f\n", "mdl waits (sum)",
		c.Frame.MDLWaits.Slice(0, 800).Sum(),
		c.Frame.MDLWaits.Slice(c.AS, c.AE).Sum())

	d := run.Diagnose(c)
	fmt.Println("\nHigh-impact SQLs (the frozen victims dominate):")
	for i, s := range d.HSQLs {
		if i == 4 {
			break
		}
		table := ""
		if ts := run.Frame().Template(s.ID); ts != nil {
			table = ts.Meta.Table
		}
		fmt.Printf("  %d. %s (table %s) impact=%+.2f\n", i+1, s.ID, table, s.Impact)
	}

	fmt.Println("\nRoot Cause SQL candidates:")
	hit := false
	for i, r := range d.RSQLs {
		if i == 4 {
			break
		}
		marker := "  "
		if r.ID == incident.RSQLs[0] {
			marker = "★ "
			hit = true
		}
		fmt.Printf("  %s%d. %s score=%+.2f\n", marker, i+1, r.ID, r.Score)
	}
	if hit {
		fmt.Println("\n★ the injected ALTER TABLE (MDL cases are the hardest family:")
		fmt.Println("  a single DDL execution leaves almost no #execution trend).")
	} else {
		fmt.Printf("\nthe DDL (%s) was not ranked — MDL incidents are the residual\n", incident.RSQLs[0])
		fmt.Println("failure mode the paper's 80% aggregate accuracy also contains.")
	}
}
