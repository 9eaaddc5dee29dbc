package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// host is the provenance printed with every result, so two results can
// be compared only when they come from the same machine and build.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
}

func fingerprint(workload string, seed uint64) host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Workload:   workload,
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, falling back
// to the architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// buildCommit is the git revision run.sh passes at link time
// (-X main.buildCommit=...); empty outside a git checkout.
var buildCommit string

func commit() string {
	if buildCommit == "" {
		return "unknown"
	}
	return buildCommit
}
