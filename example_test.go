package vpga_test

import (
	"context"
	"fmt"

	"vpga"
)

// ExampleRun is the package quick start: one design pushed through the
// flow on a resolved Config.
func ExampleRun() {
	ctx := context.Background()
	report, err := vpga.Run(ctx, vpga.ALU(16), vpga.Config{
		Arch: vpga.GranularPLB(),
		Flow: vpga.FlowB,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s on %s: die area %.0f\n", report.Design, report.Arch, report.DieArea)
}

// ExampleExecute describes the run as a serializable FlowRequest — the
// document vpgad accepts and its report cache keys — and executes it
// under the flow supervisor.
func ExampleExecute() {
	ctx := context.Background()
	res, err := vpga.Execute(ctx, vpga.FlowRequest{
		Design: "alu",
		Arch:   vpga.ArchSpec{Kind: "granular"},
		Seed:   7,
	}, vpga.ExecOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s on %s: die area %.0f\n", res.Report.Design, res.Report.Arch, res.Report.DieArea)
}
