// Lock-storm scenario (§I Challenge III, §II category 3-ii): a burst of
// UPDATEs takes exclusive row locks; SELECTs on the same rows pile up and
// become the visible High-impact SQLs, while the UPDATE is the true Root
// Cause SQL. Top-SQL-style rankings point at the victims; PinSQL finds the
// culprit.
//
//	go run ./examples/lockstorm
package main

import (
	"fmt"
	"log"

	"pinsql"
)

func main() {
	world := pinsql.NewDemoWorld(3)
	storm := world.InjectLockStorm(world.Services[2], "orders", 7, 700_000, 1_000_000)

	run, err := pinsql.Simulate(world, pinsql.SimOptions{DurationSec: 1600, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	detected := run.DetectCases()
	if len(detected) == 0 {
		log.Fatal("no anomaly detected")
	}
	c := detected[0]

	// How the lock storm looks on the instance metrics.
	base := c.Frame.ActiveSession.Slice(0, c.AS).Mean()
	storm1 := c.Frame.ActiveSession.Slice(c.AS, c.AE).Mean()
	waits := c.Frame.RowLockWaits.Slice(c.AS, c.AE).Sum()
	fmt.Printf("active session: %.1f → %.1f during the anomaly; %d row-lock waits\n\n",
		base, storm1, int(waits))

	// What a Top-SQL product would show the DBA.
	topRT, err := pinsql.TopSQL(c.Frame, c.AS, c.AE, "Top-RT")
	if err != nil {
		log.Fatal(err)
	}
	truth := map[pinsql.TemplateID]bool{}
	for _, id := range storm.RSQLs {
		truth[id] = true
	}
	fmt.Println("Top-RT ranking (what Performance-Insights-style tools show):")
	for i, id := range topRT[:3] {
		marker := "   "
		if truth[id] {
			marker = "★  "
		}
		fmt.Printf("  %s%d. %s  %s\n", marker, i+1, id, textOf(run, id))
	}

	// What PinSQL pinpoints.
	d := run.Diagnose(c)
	fmt.Println("\nPinSQL R-SQL ranking:")
	for i, r := range d.RSQLs {
		if i == 3 {
			break
		}
		marker := "   "
		if truth[r.ID] {
			marker = "★  "
		}
		fmt.Printf("  %s%d. %s  %s\n", marker, i+1, r.ID, textOf(run, r.ID))
	}
	fmt.Println("\n★ = the injected root causes (the job's hot-row writes)")

	if len(d.RSQLs) > 0 && truth[d.RSQLs[0].ID] {
		fmt.Println("PinSQL ranked a culprit first; Top-RT surfaced the blocked victim.")
	}
}

func textOf(run *pinsql.Run, id pinsql.TemplateID) string {
	if ts := run.Frame().Template(id); ts != nil {
		return ts.Meta.Text
	}
	return ""
}
