// Business-spike scenario (§II category 1): one microservice's traffic
// multiplies (a flash sale), lifting every SQL template of that business
// together — the co-spiking cluster structure the R-SQL module exploits.
// The right reaction is not throttling but AutoScale (§VII), since the
// traffic growth is legitimate.
//
//	go run ./examples/businessspike
package main

import (
	"fmt"
	"log"

	"pinsql"
)

func main() {
	world := pinsql.NewDemoWorld(21)
	storefront := world.Services[0]
	incident := world.InjectBusinessSpike(storefront, 25, 700_000, 1_000_000)

	run, err := pinsql.Simulate(world, pinsql.SimOptions{DurationSec: 1500, Seed: 23})
	if err != nil {
		log.Fatal(err)
	}
	detected := run.DetectCases()
	if len(detected) == 0 {
		log.Fatal("no anomaly detected")
	}
	c := detected[0]
	fmt.Printf("flash sale on %q: anomaly [%d s, %d s)\n\n", storefront.Name, c.AS, c.AE)

	d := run.Diagnose(c)
	fmt.Println("R-SQL ranking (ground truth = the spiked business' heavy statements):")
	truth := map[pinsql.TemplateID]bool{}
	for _, id := range incident.RSQLs {
		truth[id] = true
	}
	for i, r := range d.RSQLs {
		if i == 5 {
			break
		}
		marker := "  "
		if truth[r.ID] {
			marker = "★ "
		}
		fmt.Printf("  %s%d. %s score=%+.2f verified=%v\n", marker, i+1, r.ID, r.Score, r.Verified)
	}

	// The whole spiked business clusters together: show the cluster that
	// contains the top candidate.
	if len(d.RSQLs) > 0 {
		cl := d.Root.Clusters[d.RSQLs[0].Cluster]
		fmt.Printf("\nthe top candidate's business cluster has %d templates:\n", len(cl))
		for _, id := range cl {
			if ts := run.Frame().Template(id); ts != nil {
				fmt.Printf("  - %s  %s\n", id, ts.Meta.Text)
			}
		}
	}

	// Known business growth → AutoScale rather than throttling.
	before := run.Instance.Cores()
	run.Instance.SetCores(before * 2)
	fmt.Printf("\nAutoScale: %d → %d cores (traffic growth was legitimate; throttling\n", before, run.Instance.Cores())
	fmt.Println("a flash sale would sabotage the business, §VII).")
}
