package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// TrendFig aggregates every committed BENCH_PR*.json in the current
// directory into one performance-trajectory table, so the repo's perf
// history reads in one place without opening each artifact.
func TrendFig(w io.Writer) error {
	files, err := filepath.Glob("BENCH_PR*.json")
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("trend: no BENCH_PR*.json artifacts in the current directory")
	}
	sort.Strings(files)
	fmt.Fprintf(w, "== Performance trajectory: committed BENCH_PR*.json artifacts ==\n")
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("trend: %s: %w", f, err)
		}
		figure, _ := doc["figure"].(string)
		fmt.Fprintf(w, "\n%s  (figure %q)\n", f, figure)
		keys := make([]string, 0, len(doc))
		for k := range doc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			arr, ok := doc[k].([]any)
			if !ok {
				continue
			}
			wall := 0.0
			var highlights []string
			for _, e := range arr {
				obj, ok := e.(map[string]any)
				if !ok {
					continue
				}
				if v, ok := obj["wall_seconds"].(float64); ok {
					wall += v
				}
				if sp, ok := obj["speedup"].(float64); ok {
					name, _ := obj["name"].(string)
					if wk, ok := obj["workers"].(float64); ok {
						name = fmt.Sprintf("%s@w%d", name, int(wk))
					}
					highlights = append(highlights, fmt.Sprintf("%s %.2fx", name, sp))
				}
			}
			line := fmt.Sprintf("  %-8s %3d entries", k, len(arr))
			if wall > 0 {
				line += fmt.Sprintf(", %.1fs total wall", wall)
			}
			fmt.Fprintln(w, line)
			if len(highlights) > 0 {
				fmt.Fprintf(w, "           speedups: %s\n", strings.Join(highlights, ", "))
			}
		}
	}
	return nil
}
