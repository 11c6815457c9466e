package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/ecc"
)

// calibSink keeps the calibration loop's result live.
var calibSink uint8

// hostCalibNS times a fixed SEC-DED encode loop and returns ns per
// encode, the median of five passes. The kernel never changes, so the
// figure moves only with the host: comparing it across result files
// separates host drift from code changes.
func hostCalibNS() float64 {
	const n = 1 << 20
	passes := make([]float64, 5)
	for p := range passes {
		var acc uint8
		w := uint64(0x9e3779b97f4a7c15)
		start := time.Now()
		for i := 0; i < n; i++ {
			acc ^= ecc.EncodeSECDED(w)
			w = w*6364136223846793005 + 1442695040888963407
		}
		passes[p] = float64(time.Since(start)) / n
		calibSink ^= acc
	}
	return median(passes)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// provenance is recorded with every result.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	CalibNS    float64 `json:"host_calib_ns"`
}

func newProvenance(c cliArgs, calib float64) provenance {
	return provenance{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   c.workload,
		Seed:       c.seed,
		Seconds:    c.seconds,
		Trace:      c.trace,
		CalibNS:    calib,
	}
}
