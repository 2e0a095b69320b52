// Command benchab compares the working tree with a base revision on
// perfbench workloads. It extracts the base revision into
// .bench_build/ab-<rev> (with git archive, so nothing is registered in
// .git), then for each workload runs the given number of pairs of
// perfbench runs over a seed range, alternating which side runs first,
// and prints a table: for each end-to-end metric in BENCHMARK.json the
// median and quartiles of both sides, the change of the median against
// the metric's bound, how many pairs the working tree won, and whether
// the median moved by more than the base's interquartile range.
// -workload takes one name, a comma-separated list, or all (every
// workload BENCHMARK.json declares). Run it from the repository root:
//
//	go run ./cmd/benchab -base HEAD~1 -workload all -pairs 10 -seeds 1-5 -seconds 30
//
// or `make bench-ab` (see the Makefile for its variables).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// report is the closing JSON line of a perfbench run.
type report struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// benchmark is the part of BENCHMARK.json the comparison reads.
type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func main() {
	base := flag.String("base", "HEAD", "revision to compare the working tree with")
	workload := flag.String("workload", "all", "perfbench workload, comma-separated workloads, or all")
	pairs := flag.Int("pairs", 10, "number of base / working-tree run pairs")
	seeds := flag.String("seeds", "1-5", "seed range lo-hi; pair i runs seed lo + i modulo the range")
	seconds := flag.Int("seconds", 30, "timed seconds of each run")
	flag.Parse()
	if err := run(*base, *workload, *seeds, *pairs, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(base, workloads, seeds string, pairs, seconds int) error {
	var lo, hi int64
	if _, err := fmt.Sscanf(seeds, "%d-%d", &lo, &hi); err != nil || hi < lo {
		return fmt.Errorf("seeds %q: want lo-hi", seeds)
	}
	if pairs < 1 {
		return fmt.Errorf("pairs %d: want at least one", pairs)
	}
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rev, err := git(root, "rev-parse", "--verify", base+"^{commit}")
	if err != nil {
		return err
	}
	var bench benchmark
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names, err := bench.workloads(workloads)
	if err != nil {
		return err
	}
	baseDir, err := extract(root, rev)
	if err != nil {
		return err
	}
	ab := abRun{bench: bench, baseDir: baseDir, workDir: root, rev: rev, seeds: seeds, lo: lo, hi: hi, pairs: pairs, seconds: seconds}
	for _, w := range names {
		if err := ab.compare(w); err != nil {
			return err
		}
	}
	return nil
}

// abRun is one comparison's settings, shared by its workloads.
type abRun struct {
	bench            benchmark
	baseDir, workDir string
	rev, seeds       string
	lo, hi           int64
	pairs, seconds   int
}

// workloads resolves the -workload argument against the workloads
// BENCHMARK.json declares.
func (b benchmark) workloads(arg string) ([]string, error) {
	var all []string
	for _, w := range b.Workloads {
		all = append(all, w.Name)
	}
	if arg == "all" {
		return all, nil
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, w := range all {
			found = found || w == n
		}
		if !found {
			return nil, fmt.Errorf("workload %q: BENCHMARK.json declares %s", n, strings.Join(all, ", "))
		}
		names = append(names, n)
	}
	return names, nil
}

// compare runs the pairs of one workload and prints its table.
func (ab abRun) compare(workload string) error {
	bench, lo, hi, pairs, seconds := ab.bench, ab.lo, ab.hi, ab.pairs, ab.seconds
	sides := []struct{ name, dir string }{{"base", ab.baseDir}, {"work", ab.workDir}}
	values := map[string][2][]float64{}
	for i := 0; i < pairs; i++ {
		seed := lo + int64(i)%(hi-lo+1)
		for j := range sides {
			s := (i + j) % 2 // even pairs run the base first, odd ones the working tree
			side := sides[s]
			rep, err := perfbench(side.dir, workload, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s pair %d %s seed %d: %w", workload, i+1, side.name, seed, err)
			}
			fmt.Printf("%s pair %d %s seed %d: correct %v, %d attempted, %d failed", workload, i+1, side.name, seed,
				rep.Correct, rep.Attempted, rep.Failed)
			for _, m := range bench.EndToEnd {
				v := rep.Metrics[m.Name].Value
				fmt.Printf(", %s %.4g", m.Name, v)
				vs := values[m.Name]
				vs[s] = append(vs[s], v)
				values[m.Name] = vs
			}
			fmt.Println()
			if !rep.Correct || rep.Failed > 0 {
				return fmt.Errorf("%s pair %d %s seed %d: answers not correct or queries failed", workload, i+1, side.name, seed)
			}
		}
	}

	fmt.Printf("\n%s, %d pairs, seeds %s, %d s runs; base %s\n", workload, pairs, ab.seeds, seconds, ab.rev[:12])
	fmt.Printf("%-16s %28s %28s %8s %6s %5s %s\n", "metric", "base median [q1, q3]", "work median [q1, q3]", "change", "bound", "wins", "verdict")
	for _, m := range bench.EndToEnd {
		vs := values[m.Name]
		b, w := quartiles(vs[0]), quartiles(vs[1])
		sign := 1.0 // +1 when lower is better
		if m.Better == "higher" {
			sign = -1
		}
		change := 0.0
		if b[1] != 0 {
			change = (w[1] - b[1]) / b[1]
		}
		wins := 0
		for i := range vs[0] {
			if sign*(vs[1][i]-vs[0][i]) < 0 {
				wins++
			}
		}
		verdict := "within bound"
		switch {
		case sign*change > m.Bound:
			verdict = "WORSE beyond bound"
		case sign*(w[1]-b[1]) < 0 && math.Abs(w[1]-b[1]) > b[2]-b[0]:
			verdict = "better by more than the base IQR"
		}
		fmt.Printf("%-16s %28s %28s %+7.1f%% %6.2f %2d/%-2d %s\n", m.Name, fmtQ(b), fmtQ(w),
			100*change, m.Bound, wins, len(vs[0]), verdict)
	}
	fmt.Println()
	return nil
}

// git runs git in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// extract writes revision rev's tree to .bench_build/ab-<rev> once and
// returns the directory.
func extract(root, rev string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "ab-"+rev[:12])
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", rev)
	archive.Dir = root
	untar := exec.Command("tar", "-x", "-C", tmp)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin = pipe
	if err := untar.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Wait(); err != nil {
		return "", fmt.Errorf("extracting %s: %w", rev, err)
	}
	return dir, os.Rename(tmp, dir)
}

// perfbench runs one untraced perfbench run from dir and parses its
// closing JSON line.
func perfbench(dir, workload string, seed int64, seconds int) (report, error) {
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("closing line: %w", err)
	}
	return rep, nil
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolating between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
