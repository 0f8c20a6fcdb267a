package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// repeat runs the workload o.repeat times, each in a child process of this
// command with the next seed, and prints the host calibration and each
// metric's median and quartiles.
func repeat(o options, args []string) error {
	calibrate()
	values := map[string][]float64{}
	units := map[string]string{}
	var names []string
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		child := append(withoutFlags(args, "repeat", "seed"), "--seed", strconv.FormatInt(seed, 10))
		cmd := exec.Command(os.Args[0], child...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run with seed %d: %w", seed, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", seed, res.Correct, res.Attempted, res.Failed)
		for name, m := range res.Metrics {
			if _, ok := units[name]; !ok {
				names = append(names, name)
				units[name] = m.Unit
			}
			values[name] = append(values[name], m.Value)
		}
	}
	sort.Strings(names)
	fmt.Printf("%-36s %12s %12s %12s %8s  unit\n", "metric", "q1", "median", "q3", "iqr/med")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		fmt.Printf("%-36s %12.4f %12.4f %12.4f %8.3f  %s\n", name, q1, med, q3, ratio(q3-q1, med), units[name])
	}
	return nil
}

// withoutFlags drops the named flags and their values from args.
func withoutFlags(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		drop := false
		for _, n := range names {
			for _, form := range []string{"-" + n, "--" + n} {
				switch {
				case a == form:
					drop = true
					i++ // the value follows
				case len(a) > len(form) && a[:len(form)+1] == form+"=":
					drop = true
				}
			}
		}
		if !drop {
			out = append(out, a)
		}
	}
	return out
}

// quartiles are the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles(xs, n=4)).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := int(h)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// calibrate prints what the host's timing figures depend on: processors,
// GOMAXPROCS and the wall time of a 50 µs sleep, the interconnect's modelled
// hop.
func calibrate() {
	var sleeps []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		sleeps = append(sleeps, us(time.Since(start)))
	}
	q1, med, q3 := quartiles(sleeps)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d sleep(50us) wall p25/p50/p75 = %.0f/%.0f/%.0f us\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), q1, med, q3)
}
