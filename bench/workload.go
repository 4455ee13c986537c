package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"

	"powder/internal/activity"
	"powder/internal/blif"
	"powder/internal/cellib"
	"powder/internal/circuits"
	"powder/internal/netlist"
	"powder/internal/redundancy"
	"powder/internal/synth"
)

// workload is one set of inputs the benchmark runs and the way the program
// is driven over them.
type workload struct {
	Name string
	Why  string
	// Circuits are Table-1 circuit names.
	Circuits []string
	// Daemon drives a powderd process through internal/client instead of
	// calling the engine in-process.
	Daemon bool
	// PreOptimize runs redundancy removal on each mapped circuit before it
	// is written, giving the paper's POSE-grade starting points.
	PreOptimize bool
	// DelayFactor constrains the engine runs (0 = unconstrained).
	DelayFactor float64
	// Parallelism is core.Options.Parallelism of the engine runs.
	Parallelism int
	// Profile, when non-zero, seeds the biased activity profile written as
	// a VCD for every circuit. The profile and its stimulus depend on this
	// constant only, never on the benchmark seed: the greedy loop is
	// chaotic in its sample vectors, so an activity that moved with the
	// seed would change how much work a run does.
	Profile int64
	// Hits is how many cache hits a daemon rep submits once every key has
	// missed once.
	Hits int
}

// smokeProfile is an activity profile under which comp and clip complete
// in every workload shape.
const smokeProfile = 8

var workloads = []workload{
	{
		Name:     "heavy-seq",
		Why:      "heaviest sequential engine runs: AB-analysis dominates, proofs are a few percent",
		Circuits: []string{"spla", "pdc", "apex5"},
	},
	{
		Name:        "heavy-par2",
		Why:         "same circuits through the region engine on two cores: partition, commit and scheduling",
		Circuits:    []string{"spla", "pdc", "apex5"},
		Parallelism: 2,
	},
	{
		Name:        "pose-biased",
		Why:         "redundancy-removed circuits, delay-constrained, under a biased VCD: proofs, PG_C and STA weigh in",
		Circuits:    []string{"apex1", "x3", "ex4"},
		PreOptimize: true,
		DelayFactor: 1,
		Profile:     16,
	},
	{
		Name:     "daemon-mixed",
		Why:      "powderd: 48 jobs that miss its result cache, then 600 repeats that hit it, timed apart so no metric rests on an assumed hit ratio",
		Circuits: []string{"rd84", "term1", "Z9sym", "t481", "Z5xp1", "f51m", "alu4tl", "C1355", "C1908", "des", "C432", "misex3"},
		Daemon:   true,
		Profile:  7,
		// Two reps of 600 hits give a p99 with at least ten samples
		// beyond it.
		Hits: 600,
	},
}

// findWorkload returns the named workload, or its comp+clip smoke variant.
func findWorkload(name string, smoke bool) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			if smoke {
				w.Circuits = []string{"comp", "clip"}
				if w.Profile != 0 {
					w.Profile = smokeProfile
				}
				if w.Daemon {
					w.Hits = 32
				}
			}
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// daemonKey is one distinct daemon submission: a circuit under one option
// set. The first submission of a key misses the result cache; every later
// one should hit it.
type daemonKey struct {
	Circuit     int  `json:"circuit"`
	Constrained bool `json:"constrained"`
	Activity    bool `json:"activity"`
}

// circuitFiles names one circuit's generated input files.
type circuitFiles struct {
	Name string `json:"name"`
	BLIF string `json:"blif"`
	VCD  string `json:"vcd,omitempty"`
}

// inputSet is everything the program is given for one workload and seed,
// written to a directory as inputs.json plus the BLIF and VCD files.
type inputSet struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Smoke    bool           `json:"smoke,omitempty"`
	Warmup   string         `json:"warmup"`
	Circuits []circuitFiles `json:"circuits"`
	Keys     []daemonKey    `json:"keys,omitempty"`
	// Misses lists every key once, in submission order; Hits lists the
	// keys submitted again once all of them have missed.
	Misses []int `json:"misses,omitempty"`
	Hits   []int `json:"hits,omitempty"`
}

// activityLevels are the signal probabilities a biased profile draws from.
var activityLevels = []float64{.05, .1, .2, .5, .8, .9, .95}

// generate writes the inputs of workload w under seed into dir. The seed
// renames every signal, picks the keys of the daemon's cache hits and the
// held-out estimation vectors; it never changes the circuits, the activity
// statistics or the daemon's cache misses, so every seed asks for the same
// engine work.
func generate(w workload, seed int64, smoke bool, dir string) (*inputSet, error) {
	lib := cellib.Lib2()
	in := &inputSet{Workload: w.Name, Seed: seed, Smoke: smoke, Warmup: "warmup.blif"}
	warm, err := mapped("comp", false, lib)
	if err != nil {
		return nil, err
	}
	if err := writeBLIF(filepath.Join(dir, in.Warmup), warm); err != nil {
		return nil, err
	}
	for _, name := range w.Circuits {
		nl, err := mapped(name, w.PreOptimize, lib)
		if err != nil {
			return nil, err
		}
		if nl, err = rename(nl, seed, name); err != nil {
			return nil, err
		}
		cf := circuitFiles{Name: name, BLIF: name + ".blif"}
		if err := writeBLIF(filepath.Join(dir, cf.BLIF), nl); err != nil {
			return nil, err
		}
		if w.Profile != 0 {
			cf.VCD = name + ".vcd"
			var buf bytes.Buffer
			if _, err := activity.DumpVCD(&buf, nl, activity.DumpOptions{Seed: w.Profile, InputProbs: profileProbs(w.Profile, len(nl.Inputs()))}); err != nil {
				return nil, fmt.Errorf("%s: dump VCD: %w", name, err)
			}
			if err := os.WriteFile(filepath.Join(dir, cf.VCD), buf.Bytes(), 0o644); err != nil {
				return nil, err
			}
		}
		in.Circuits = append(in.Circuits, cf)
	}
	if w.Daemon {
		for c := range in.Circuits {
			for _, constrained := range []bool{false, true} {
				for _, act := range []bool{false, true} {
					in.Keys = append(in.Keys, daemonKey{Circuit: c, Constrained: constrained, Activity: act})
				}
			}
		}
		in.Misses, in.Hits = daemonScript(len(in.Keys), w.Hits, seed)
	}
	data, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		return nil, err
	}
	return in, os.WriteFile(filepath.Join(dir, "inputs.json"), data, 0o644)
}

// mapped compiles a Table-1 circuit with the power-aware mapper, as
// powbench does, and round-trips it through BLIF so the result has the
// node order the program sees when it reads the file.
func mapped(name string, preOptimize bool, lib *cellib.Library) (*netlist.Netlist, error) {
	spec, err := circuits.ByName(name)
	if err != nil {
		return nil, err
	}
	nl, err := synth.Compile(spec.Build(), lib, synth.Options{Mode: synth.CostPower})
	if err != nil {
		return nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	if preOptimize {
		if _, err := redundancy.Remove(nl, redundancy.Options{}); err != nil {
			return nil, fmt.Errorf("%s: redundancy removal: %w", name, err)
		}
	}
	var buf bytes.Buffer
	if err := blif.Write(&buf, nl); err != nil {
		return nil, err
	}
	return blif.Read(&buf, lib)
}

// rename returns a copy of nl in which every signal carries a name drawn
// from a seeded permutation. Node order and structure are unchanged.
func rename(nl *netlist.Netlist, seed int64, salt string) (*netlist.Netlist, error) {
	h := fnv.New64a()
	h.Write([]byte(salt))
	perm := rand.New(rand.NewSource(seed ^ int64(h.Sum64()))).Perm(nl.NumNodes())
	name := func(id netlist.NodeID) string { return fmt.Sprintf("w%d", perm[id]) }
	return rebuild(nl, name, func(_ int, po netlist.PO) string { return name(po.Driver) })
}

// rebuild copies the live part of nl in topological order under new node
// and output names.
func rebuild(nl *netlist.Netlist, nodeName func(netlist.NodeID) string, poName func(int, netlist.PO) string) (*netlist.Netlist, error) {
	out := netlist.New(nl.Name, nl.Lib)
	out.POLoad = nl.POLoad
	ids := make([]netlist.NodeID, nl.NumNodes())
	for _, id := range nl.Inputs() {
		nid, err := out.AddInput(nodeName(id))
		if err != nil {
			return nil, err
		}
		ids[id] = nid
	}
	for _, id := range nl.TopoOrder() {
		n := nl.Node(id)
		if n.Kind() != netlist.KindGate {
			continue
		}
		fanins := make([]netlist.NodeID, len(n.Fanins()))
		for i, f := range n.Fanins() {
			fanins[i] = ids[f]
		}
		nid, err := out.AddGate(nodeName(id), n.Cell(), fanins)
		if err != nil {
			return nil, err
		}
		ids[id] = nid
	}
	for i, po := range nl.Outputs() {
		if err := out.AddOutput(poName(i, po), ids[po.Driver]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// profileProbs draws the per-input signal probabilities of a biased
// activity profile.
func profileProbs(profile int64, inputs int) []float64 {
	rng := rand.New(rand.NewSource(profile))
	probs := make([]float64, inputs)
	for i := range probs {
		probs[i] = activityLevels[rng.Intn(len(activityLevels))]
	}
	return probs
}

// daemonScript orders a daemon rep's submissions over nKeys keys. The
// misses, which run the engine, come in one fixed order, so every seed
// pairs the same jobs on the daemon's two workers; the seed picks the key
// each of the hits repeats.
func daemonScript(nKeys, hits int, seed int64) (misses, repeats []int) {
	misses = rand.New(rand.NewSource(1)).Perm(nKeys)
	rng := rand.New(rand.NewSource(seed))
	repeats = make([]int, hits)
	for i := range repeats {
		repeats[i] = rng.Intn(nKeys)
	}
	return misses, repeats
}

func writeBLIF(path string, nl *netlist.Netlist) error {
	var buf bytes.Buffer
	if err := blif.Write(&buf, nl); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// loadInputs reads an input set and its files back from dir.
func loadInputs(dir string) (*inputSet, map[string][]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, "inputs.json"))
	if err != nil {
		return nil, nil, err
	}
	var in inputSet
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, nil, fmt.Errorf("inputs.json: %w", err)
	}
	files := map[string][]byte{}
	names := []string{in.Warmup}
	for _, c := range in.Circuits {
		names = append(names, c.BLIF)
		if c.VCD != "" {
			names = append(names, c.VCD)
		}
	}
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, nil, err
		}
		files[n] = b
	}
	return &in, files, nil
}
