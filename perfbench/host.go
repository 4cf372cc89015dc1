package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"paco/internal/version"
)

// hostInfo fingerprints the machine and build a result was measured on,
// so a number is never compared across hosts: CPU model, logical CPUs,
// GOMAXPROCS, the scheduler affinity mask, the Go toolchain and the
// code's commit.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Affinity   string `json:"affinity"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// fingerprint reads the host description from /proc where Linux offers
// it and falls back to "unknown" elsewhere. root is the source tree to
// digest when the binary carries no VCS revision (a checkout exported
// without .git still gets a stable code identity).
func fingerprint(root string) hostInfo {
	h := hostInfo{
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Affinity:   procField("/proc/self/status", "Cpus_allowed_list"),
		GoVersion:  runtime.Version(),
		Commit:     version.Get().Revision,
	}
	if h.Commit == "" {
		h.Commit = "src-" + sourceDigest(root)
	}
	return h
}

// procField returns the first "key: value" line's value in a /proc
// file.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (in
// path order, skipping hidden and build directories) to 12 hex digits.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(sum, filepath.ToSlash(p)+"\x00")
		io.Copy(sum, f)
		f.Close()
	}
	return hex.EncodeToString(sum.Sum(nil))[:12]
}
