package parapsp_test

// Godoc examples for the public API. Each runs as a test; the Output
// comments pin the behaviour.

import (
	"fmt"

	"parapsp"
)

// ExampleSolve computes exact APSP on a small explicit graph with the
// paper's ParAPSP algorithm.
func ExampleSolve() {
	// A weighted diamond: two routes from 0 to 3.
	g, err := parapsp.FromEdges(4, false, []parapsp.Edge{
		{From: 0, To: 1, W: 1},
		{From: 1, To: 3, W: 1},
		{From: 0, To: 2, W: 5},
		{From: 2, To: 3, W: 5},
	})
	if err != nil {
		panic(err)
	}
	res, err := parapsp.Solve(g, parapsp.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("distance 0->3:", res.D.At(0, 3))
	fmt.Println("unreachable 3->0:", res.D.At(3, 0) == parapsp.Inf)
	// Output:
	// distance 0->3: 2
	// unreachable 3->0: true
}

// ExamplePath walks a shortest path back from a solved distance matrix;
// it needs no second n×n matrix.
func ExamplePath() {
	g, err := parapsp.FromEdges(4, true, []parapsp.Edge{
		{From: 0, To: 1, W: 1},
		{From: 1, To: 2, W: 1},
		{From: 2, To: 3, W: 1},
	})
	if err != nil {
		panic(err)
	}
	res, err := parapsp.Solve(g, parapsp.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(parapsp.Path(g, res.D, 0, 3))
	// Output:
	// [0 1 2 3]
}

// ExampleCountingSortDesc sorts record indices by bounded integer keys in
// O(n + maxKey), the general-purpose face of the paper's ordering work.
func ExampleCountingSortDesc() {
	keys := []int{3, 9, 3, 1}
	perm, err := parapsp.CountingSortDesc(keys)
	if err != nil {
		panic(err)
	}
	for _, i := range perm {
		fmt.Print(keys[i], " ")
	}
	// Output:
	// 9 3 3 1
}

// ExampleDiameter derives graph statistics from the distance matrix.
func ExampleDiameter() {
	// A 5-path: diameter 4, radius 2.
	b := parapsp.NewBuilder(5, true)
	for i := int32(0); i < 4; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	res, err := parapsp.Solve(g, parapsp.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(parapsp.Diameter(res.D), parapsp.Radius(res.D))
	// Output:
	// 4 2
}

// ExampleSolveSubset computes a handful of rows without O(n^2) memory.
func ExampleSolveSubset() {
	g, err := parapsp.GenerateBarabasiAlbert(1000, 3, 7)
	if err != nil {
		panic(err)
	}
	rows, err := parapsp.SolveSubset(g, []int32{0, 500}, parapsp.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println("rows solved:", len(rows.Sources))
	fmt.Println("row memory under 1 MB:", rows.MemBytes() < 1<<20)
	// Output:
	// rows solved: 2
	// row memory under 1 MB: true
}
