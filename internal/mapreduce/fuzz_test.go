package mapreduce_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math/rand"
	"runtime"
	"testing"

	"spq/internal/core"
	"spq/internal/data"
	"spq/internal/dfs"
	"spq/internal/geo"
	"spq/internal/mapreduce"
	"spq/internal/text"
)

// FuzzDecodePairs feeds the worker's shuffle-run decoder arbitrary bytes
// and record counts, with the codecs SPQ jobs ship. Both values reach a
// worker off the wire, inside a net/rpc handler that does not recover: the
// decoder must return an error, never panic, and never allocate more than
// a constant factor of the bytes it was actually handed.
func FuzzDecodePairs(f *testing.F) {
	kc, vc := core.CellKeyCodec(), core.RecCodec()
	encode := func(recs ...core.Rec) []byte {
		var run bytes.Buffer
		w := bufio.NewWriter(&run)
		for i, r := range recs {
			if err := kc.Encode(w, core.CellKey{Cell: 5, Order: float64(i)}); err != nil {
				f.Fatal(err)
			}
			if err := vc.Encode(w, r); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return run.Bytes()
	}
	recs := []core.Rec{
		{Kind: data.DataObject, ID: 7, Loc: geo.Point{X: 0.25, Y: 0.5}},
		{Kind: data.FeatureObject, ID: 1 << 40, Loc: geo.Point{X: 0.3, Y: 0.4}, Len: 300, Hits: 3},
		{Kind: data.FeatureObject, ID: 9, Loc: geo.Point{X: 0.9, Y: 0.1}, Len: 1},
	}
	valid := encode(recs...)
	pairs, err := mapreduce.DecodePairs(valid, len(recs), kc, vc)
	if err != nil || len(pairs) != len(recs) {
		f.Fatalf("valid run: %d pairs, err %v", len(pairs), err)
	}
	for i, p := range pairs {
		if p.Value != recs[i] {
			f.Fatalf("record %d round-tripped as %+v, want %+v", i, p.Value, recs[i])
		}
	}
	// Values the encoder cannot produce. A record is its key (12 bytes),
	// kind (1), id (8) and location (16), then the two count varints.
	head := valid[:12+1+8+16]
	hostile := []struct {
		name string
		run  []byte
	}{
		{"more hits than keywords", encode(core.Rec{Kind: data.FeatureObject, ID: 1, Len: 2, Hits: 3})},
		{"2^40 keywords", append(binary.AppendUvarint(append([]byte(nil), head...), 1<<40), 1)},
		{"data record with counts", encode(core.Rec{Kind: data.DataObject, ID: 1, Len: 4, Hits: 1})},
		{"unknown kind byte", encode(core.Rec{Kind: 7, ID: 1})},
	}
	for _, h := range hostile {
		if _, err := mapreduce.DecodePairs(h.run, 1, kc, vc); err == nil {
			f.Fatalf("%s: decoded without an error", h.name)
		}
		f.Add(h.run, int64(1))
	}

	f.Add(valid, int64(len(recs)))
	f.Add(valid, int64(len(recs)-1)) // trailing record
	f.Add(valid, int64(len(recs)+1)) // one record short
	f.Add(valid[:len(valid)-3], int64(len(recs)))
	f.Add(valid[:13], int64(1))
	f.Add(valid, int64(-1))
	f.Add(valid, int64(1)<<40)
	f.Add([]byte{}, int64(0))

	f.Fuzz(func(t *testing.T, run []byte, records int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pairs, err := mapreduce.DecodePairs(run, int(records), kc, vc)
		runtime.ReadMemStats(&after)
		if err == nil && int64(len(pairs)) != records {
			t.Errorf("decoded %d pairs of %d without an error", len(pairs), records)
		}
		for _, p := range pairs {
			if r := p.Value; r.Hits > r.Len || (r.Kind == data.DataObject && r.Len != 0) || r.Kind > data.FeatureObject {
				t.Errorf("decoded a record the encoder cannot produce: %+v", r)
			}
		}
		// Pair[CellKey, Rec] is 56 bytes and a record at least one; the
		// slack covers the reader's buffer and the error value.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(run)+64<<10); got > limit {
			t.Errorf("decoding %d bytes (records=%d) allocated %d bytes, limit %d", len(run), records, got, limit)
		}
	})
}

// taskFS is the master file system a fuzzed worker reads through: a fixed
// set of files. Stores are recorded when record is set and dropped
// otherwise, so a long fuzz run does not accumulate shuffle runs.
type taskFS struct {
	files  map[string][]byte
	record bool
}

func (fs *taskFS) Fetch(name string) ([]byte, error) {
	d, ok := fs.files[name]
	if !ok {
		return nil, dfs.ErrNotFound
	}
	return bytes.Clone(d), nil
}

func (fs *taskFS) Store(name string, d []byte) error {
	if fs.record {
		fs.files[name] = d
	}
	return nil
}

// wireSpec mirrors the SPQ query job's wire spec field for field: gob
// matches struct fields by name, so its encoding is a spec the worker's
// job builder decodes.
type wireSpec struct {
	Alg         int
	K           int
	Radius      float64
	Mode        int
	Keywords    []uint32
	Size        int
	Bounds      geo.Rect
	GridN       int
	NumReducers int
	Gen         uint64
	DataBlocks  string
}

// FuzzTaskDesc feeds a worker arbitrary bytes as a gob-encoded task
// descriptor and runs the task against a tiny file system holding one data
// and one feature segment, the data segment's block list (the reduce
// tasks' views) and the shuffle runs of a real map task. The
// descriptor reaches a worker off the wire, inside a net/rpc handler that
// does not recover: RunTask must never panic, and every task it does not
// run must come back as an error. The seeds are valid map (one block and a
// group of blocks) and reduce descriptors of an SPQ query job, and hostile
// variants of them.
func FuzzTaskDesc(f *testing.F) {
	r := rand.New(rand.NewSource(4))
	dict := text.NewDict()
	fsys := &taskFS{files: map[string][]byte{}, record: true}
	refs := map[data.Kind][]mapreduce.SplitRef{}
	for _, kind := range []data.Kind{data.DataObject, data.FeatureObject} {
		var seg bytes.Buffer
		cw := data.NewCol3Writer(&seg, kind, dict, 16)
		for i := 0; i < 40; i++ {
			o := data.Object{Kind: kind, ID: uint64(i), Loc: geo.Point{X: r.Float64(), Y: r.Float64()}}
			if kind == data.FeatureObject {
				o.Keywords = text.NewKeywordSet(uint32(r.Intn(4)), uint32(4+r.Intn(8)))
			}
			if err := cw.Append(o); err != nil {
				f.Fatal(err)
			}
		}
		if err := cw.Close(); err != nil {
			f.Fatal(err)
		}
		name := "g1/" + kind.String()
		fsys.files[name] = seg.Bytes()
		if kind == data.DataObject {
			fsys.files[data.BlockListFileName("g1")] = data.EncodeBlockList([]data.CellStats{{File: name, Records: 40, Blocks: cw.Stats()}})
		}
		for i, bs := range cw.Stats() {
			extra := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(i)), uint64(bs.Records))
			refs[kind] = append(refs[kind], mapreduce.SplitRef{Kind: "col", File: name, Offset: bs.Offset, Length: int64(bs.Length), Extra: extra})
		}
	}
	var spec bytes.Buffer
	if err := gob.NewEncoder(&spec).Encode(wireSpec{
		Alg: int(core.PSPQ), K: 3, Radius: 0.2, Keywords: []uint32{1, 5},
		Bounds: geo.Rect{MaxX: 1, MaxY: 1}, GridN: 4, NumReducers: 3, Gen: 1, DataBlocks: data.BlockListFileName("g1"),
	}); err != nil {
		f.Fatal(err)
	}
	mapDesc := func(job string, split *mapreduce.SplitRef) mapreduce.TaskDesc {
		return mapreduce.TaskDesc{
			Job: "fuzz", JobID: job, Kind: mapreduce.MapTask, Attempt: 1, NumMaps: 2, NumReducers: 3,
			JobKind: core.WireKind, JobSpec: spec.Bytes(), Split: split,
		}
	}
	group := &mapreduce.SplitRef{Kind: "group", Group: append(append([]mapreduce.SplitRef(nil), refs[data.DataObject]...), refs[data.FeatureObject]...)}
	valid := []mapreduce.TaskDesc{mapDesc("j1", &refs[data.FeatureObject][0]), mapDesc("j1", group)}
	run := func(d mapreduce.TaskDesc) (*mapreduce.TaskResult, error) {
		return mapreduce.NewWorkerEnv("w", fsys).RunTask(&d)
	}
	res, err := run(valid[1])
	if err != nil || len(res.Shuffle) == 0 {
		f.Fatalf("valid map task: %d shuffle runs, err %v", len(res.Shuffle), err)
	}
	fsys.record = false
	for p := 0; p < 3; p++ {
		d := mapreduce.TaskDesc{Job: "fuzz", JobID: "j1", Kind: mapreduce.ReduceTask, Task: p, Attempt: 1, NumMaps: 2, NumReducers: 3,
			JobKind: core.WireKind, JobSpec: spec.Bytes()}
		for _, ref := range res.Shuffle {
			if ref.Part == p {
				d.Shuffle = append(d.Shuffle, ref)
			}
		}
		valid = append(valid, d)
	}
	for _, d := range valid {
		if _, err := run(d); err != nil {
			f.Fatalf("valid %v task %d: %v", d.Kind, d.Task, err)
		}
	}

	hostile := func(d mapreduce.TaskDesc, change func(*mapreduce.TaskDesc)) mapreduce.TaskDesc {
		if d.Split != nil {
			split := *d.Split
			d.Split = &split
		}
		d.Shuffle = append([]mapreduce.ShuffleRef(nil), d.Shuffle...)
		change(&d)
		return d
	}
	seeds := append([]mapreduce.TaskDesc(nil), valid...)
	for _, change := range []func(*mapreduce.TaskDesc){
		func(d *mapreduce.TaskDesc) { d.NumReducers = 1 << 40 },
		func(d *mapreduce.TaskDesc) { d.NumReducers = 0 },
		func(d *mapreduce.TaskDesc) { d.Split = nil },
		func(d *mapreduce.TaskDesc) { d.JobKind = "unknown" },
		func(d *mapreduce.TaskDesc) { d.JobSpec = d.JobSpec[:len(d.JobSpec)/2] },
		func(d *mapreduce.TaskDesc) { d.Split.Offset, d.Split.Length = -1, 1<<40 },
		func(d *mapreduce.TaskDesc) { d.Split.Offset++ },
		func(d *mapreduce.TaskDesc) { d.Split.Extra = d.Split.Extra[:1] },
		func(d *mapreduce.TaskDesc) { d.Split.File = "g1/missing" },
		func(d *mapreduce.TaskDesc) { d.Task, d.Attempt = -1, -1 },
	} {
		seeds = append(seeds, hostile(valid[0], change))
	}
	for _, change := range []func(*mapreduce.TaskDesc){
		func(d *mapreduce.TaskDesc) { d.Shuffle[0].Records = 1 << 40 },
		func(d *mapreduce.TaskDesc) { d.Shuffle[0].File = "g1/" + data.FeatureObject.String() },
		func(d *mapreduce.TaskDesc) { d.Shuffle = append(d.Shuffle, d.Shuffle...) },
	} {
		for _, d := range valid[2:] {
			if len(d.Shuffle) > 0 {
				seeds = append(seeds, hostile(d, change))
				break
			}
		}
	}
	for _, d := range seeds {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(d); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}

	f.Fuzz(func(t *testing.T, desc []byte) {
		var d mapreduce.TaskDesc
		if err := gob.NewDecoder(bytes.NewReader(desc)).Decode(&d); err != nil {
			return
		}
		if res, err := run(d); err == nil && res == nil {
			t.Fatal("RunTask returned neither a result nor an error")
		}
	})
}
