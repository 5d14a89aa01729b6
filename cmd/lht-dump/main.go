// Command lht-dump inspects the partition tree of a live LHT cluster: it
// walks the leaves left to right and prints the tree structure, bucket
// occupancy, and depth/occupancy histograms. An operator's view of how
// the index adapted to the data distribution (compare the paper's Fig. 2
// picture).
//
//	lht-dump -nodes 127.0.0.1:7001,127.0.0.1:7002
//	lht-dump -nodes ... -tree        # ASCII tree instead of the summary
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lht"
	"lht/internal/tcpnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lht-dump:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lht-dump", flag.ContinueOnError)
	var (
		nodes = fs.String("nodes", "127.0.0.1:7001", "comma-separated lht-node addresses")
		theta = fs.Int("theta", 100, "theta_split used by the index")
		depth = fs.Int("depth", 20, "maximum tree depth D")
		tree  = fs.Bool("tree", false, "print the ASCII tree instead of the summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	client, err := tcpnet.Dial(context.Background(), tcpnet.ClusterConfig{Seeds: strings.Split(*nodes, ",")})
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()
	ix, err := lht.New(client, lht.Config{SplitThreshold: *theta, MergeThreshold: *theta / 2, Depth: *depth})
	if err != nil {
		return err
	}
	leaves, err := ix.Leaves()
	if err != nil {
		return err
	}
	if *tree {
		printTree(out, leaves)
		return nil
	}
	printSummary(out, leaves, *theta)
	return nil
}

// printTree renders each leaf as an indented line, depth first by key
// order, mirroring the space partition.
func printTree(out io.Writer, leaves []*lht.Bucket) {
	for _, b := range leaves {
		iv := b.Interval()
		indent := strings.Repeat("  ", b.Label.Len()-1)
		fmt.Fprintf(out, "%s%-24s [%0.6f, %0.6f)  %3d records\n",
			indent, b.Label, iv.Lo, iv.Hi, len(b.Records))
	}
}

func printSummary(out io.Writer, leaves []*lht.Bucket, theta int) {
	var (
		records  int
		minDepth = 1 << 30
		maxDepth int
		byDepth  = map[int]int{}
		occupied int
	)
	maxOcc := 0
	for _, b := range leaves {
		records += len(b.Records)
		d := b.Label.Len()
		byDepth[d]++
		if d < minDepth {
			minDepth = d
		}
		if d > maxDepth {
			maxDepth = d
		}
		if len(b.Records) > 0 {
			occupied++
		}
		if len(b.Records) > maxOcc {
			maxOcc = len(b.Records)
		}
	}
	fmt.Fprintf(out, "leaves:   %d (%d non-empty)\n", len(leaves), occupied)
	fmt.Fprintf(out, "records:  %d (avg %.1f per leaf, max %d, capacity %d)\n",
		records, avg(records, len(leaves)), maxOcc, theta-1)
	fmt.Fprintf(out, "depth:    min %d, max %d\n", minDepth, maxDepth)
	fmt.Fprintln(out, "depth histogram:")
	for d := minDepth; d <= maxDepth; d++ {
		n := byDepth[d]
		if n == 0 {
			continue
		}
		bar := strings.Repeat("#", scaled(n, len(leaves), 50))
		fmt.Fprintf(out, "  %2d: %5d %s\n", d, n, bar)
	}
}

func avg(total, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// scaled maps n/total onto a bar of at most width chars (at least 1 for
// nonzero n).
func scaled(n, total, width int) int {
	if total == 0 || n == 0 {
		return 0
	}
	w := n * width / total
	if w == 0 {
		w = 1
	}
	return w
}
