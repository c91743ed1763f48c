package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envelope says what was measured, where and on which inputs.
type envelope struct {
	Workload     string   `json:"workload"`
	Dataset      string   `json:"dataset"`
	Scale        float64  `json:"scale"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Trace        bool     `json:"trace"`
	GitRev       string   `json:"git_rev"`
	SourceSHA256 string   `json:"source_sha256"`
	GoVersion    string   `json:"go_version"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	NumCPU       int      `json:"nproc"`
	CPU          string   `json:"cpu"`
	Vertices     int      `json:"vertices"`
	Edges        int      `json:"edges"`
	Entries      int64    `json:"entries"`
	ServerFlags  []string `json:"server_flags"`
	Setups       int      `json:"setups"`
	Connections  int      `json:"connections"`
}

func newEnvelope(cfg config, in *inputs, st serverStats, flags []string) envelope {
	scale := cfg.wl.scale
	if cfg.scale > 0 {
		scale = cfg.scale
	}
	return envelope{
		Workload: cfg.wl.name, Dataset: cfg.wl.dataset, Scale: scale, Seed: cfg.seed,
		Seconds: cfg.seconds, Trace: cfg.trace,
		GitRev: gitRev(), SourceSHA256: sourceDigest(),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU:      cpuModel(),
		Vertices: in.g.NumVertices(), Edges: in.g.NumEdges(), Entries: st.Entries,
		ServerFlags: flags, Setups: cfg.setups, Connections: cfg.wl.conns,
	}
}

// gitRev is HEAD when the checkout is a git work tree, else "none"; the
// source digest identifies the tree either way.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources of the program under test (the
// module at the working directory, without the benchmark itself).
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "none"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "none"
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
