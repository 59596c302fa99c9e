package aitax_test

import (
	"fmt"

	"aitax"
)

// ExampleMeasureApp measures where an ML application's time goes on the
// simulated Pixel 3. The output is deterministic for a fixed seed.
func ExampleMeasureApp() {
	breakdown, err := aitax.MeasureApp(aitax.AppOptions{
		Model:    "MobileNet 1.0 v1",
		DType:    aitax.UInt8,
		Delegate: aitax.DelegateNNAPI,
		Frames:   20,
		Seed:     42,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("frames measured: %d\n", breakdown.N)
	fmt.Printf("inference is the smaller share: %v\n",
		breakdown.Mean.Stage[aitax.StageInference] < breakdown.Tax())
	// Output:
	// frames measured: 20
	// inference is the smaller share: true
}

// ExampleModelByName inspects a Table-I model's pipeline requirements.
func ExampleModelByName() {
	m, err := aitax.ModelByName("PoseNet")
	if err != nil {
		panic(err)
	}
	fmt.Println(m.Task)
	fmt.Println(m.Resolution())
	fmt.Println(m.Pre.Tasks())
	fmt.Println(m.PostTasks)
	// Output:
	// Pose Estimation
	// 224x224
	// scale, crop, normalize, rotate
	// calculate keypoints
}

// ExampleTopK runs the real classification post-processing on fabricated
// model outputs.
func ExampleTopK() {
	m, _ := aitax.ModelByName("MobileNet 1.0 v1")
	outs := aitax.FabricateOutputs(m, aitax.Float32, 7)
	top := aitax.TopK(outs[0], 3)
	fmt.Printf("%d predictions, best first: %v\n", len(top), top[0].Score >= top[1].Score)
	// Output:
	// 3 predictions, best first: true
}

// ExamplePlatforms lists the Table-II hardware.
func ExamplePlatforms() {
	for _, p := range aitax.Platforms() {
		fmt.Printf("%s: %s\n", p.Chipset, p.DSPName)
	}
	// Output:
	// Snapdragon 835: Hexagon 682
	// Snapdragon 845: Hexagon 685
	// Snapdragon 855: Hexagon 690
	// Snapdragon 865: Hexagon 698
}

// ExampleExperimentByID regenerates one paper artifact.
func ExampleExperimentByID() {
	e, err := aitax.ExperimentByID("table2")
	if err != nil {
		panic(err)
	}
	res := e.Run(aitax.ExperimentConfig{Runs: 5})
	fmt.Printf("%s has %d rows\n", res.ID, len(res.Rows))
	// Output:
	// table2 has 4 rows
}
