package mapreduce

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// ---- shared test fixtures ----

// intKey is a composite key: Part routes to a reducer, Order is the
// secondary-sort field (like the paper's cell-id + tag composite keys).
type intKey struct {
	Part  int
	Order float64
}

func intKeyLess(a, b intKey) bool {
	if a.Part != b.Part {
		return a.Part < b.Part
	}
	return a.Order < b.Order
}

func intKeyGroup(a, b intKey) bool { return a.Part == b.Part }

func intKeyPartition(k intKey, r int) int { return k.Part % r }

var stringCodec = &Codec[string]{
	Encode: func(w *bufio.Writer, s string) error {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(s)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		_, err := w.WriteString(s)
		return err
	},
	Decode: func(r *bufio.Reader) (string, error) {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return "", err
		}
		buf := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	},
}

// wordCountJob builds the canonical MapReduce example over an in-memory
// source: counts word occurrences across lines.
func wordCountJob(lines []string, reducers int) *Job[string, string, int, string] {
	return &Job[string, string, int, string]{
		Name:        "wordcount",
		Source:      NewMemorySource(lines, 3),
		NumReducers: reducers,
		Map: func(ctx *TaskContext, line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Partition: func(k string, r int) int {
			h := 0
			for _, c := range k {
				h = h*31 + int(c)
			}
			if h < 0 {
				h = -h
			}
			return h % r
		},
		Less:       func(a, b string) bool { return a < b },
		GroupEqual: func(a, b string) bool { return a == b },
		Reduce: func(ctx *TaskContext, values *Values[string, int], emit func(string)) error {
			total := 0
			word := ""
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				word = values.Key()
				total += v
			}
			emit(fmt.Sprintf("%s=%d", word, total))
			return nil
		},
	}
}

func runWordCount(t *testing.T, job *Job[string, string, int, string]) map[string]int {
	t.Helper()
	res, err := Run(NewCluster(nil, 4, 4), job)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, o := range res.Output {
		var w string
		var n int
		if _, err := fmt.Sscanf(o, "%s", &w); err != nil {
			t.Fatal(err)
		}
		parts := strings.SplitN(o, "=", 2)
		fmt.Sscan(parts[1], &n)
		got[parts[0]] = n
	}
	return got
}

func TestWordCount(t *testing.T) {
	lines := []string{
		"the quick brown fox",
		"jumps over the lazy dog",
		"the dog barks",
	}
	got := runWordCount(t, wordCountJob(lines, 3))
	want := map[string]int{
		"the": 3, "quick": 1, "brown": 1, "fox": 1, "jumps": 1,
		"over": 1, "lazy": 1, "dog": 2, "barks": 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wordcount = %v, want %v", got, want)
	}
}

func TestWordCountSingleReducerSingleSlot(t *testing.T) {
	job := wordCountJob([]string{"a b a"}, 1)
	res, err := Run(NewCluster(nil, 1, 1), job)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(res.Output)
	want := []string{"a=2", "b=1"}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %v, want %v", res.Output, want)
	}
}

func TestCountersBasic(t *testing.T) {
	job := wordCountJob([]string{"x y", "x"}, 2)
	res, err := Run(NewCluster(nil, 2, 2), job)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c[CounterMapRecordsIn] != 2 {
		t.Errorf("map.records.in = %d, want 2", c[CounterMapRecordsIn])
	}
	if c[CounterMapRecordsOut] != 3 {
		t.Errorf("map.records.out = %d, want 3", c[CounterMapRecordsOut])
	}
	if c[CounterReduceGroups] != 2 {
		t.Errorf("reduce.groups = %d, want 2", c[CounterReduceGroups])
	}
	if c[CounterReduceValues] != 3 {
		t.Errorf("reduce.values.total = %d, want 3", c[CounterReduceValues])
	}
	if c[CounterValuesConsumed] != 3 {
		t.Errorf("reduce.values.consumed = %d, want 3", c[CounterValuesConsumed])
	}
	if c[CounterOutputRecords] != int64(len(res.Output)) {
		t.Errorf("output.records = %d, want %d", c[CounterOutputRecords], len(res.Output))
	}
}

// Secondary sort: within one group (same Part) values must arrive ordered
// by the Order half of the composite key, across many map tasks.
func TestSecondarySortOrder(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var recs []intKey
	for i := 0; i < 500; i++ {
		recs = append(recs, intKey{Part: r.Intn(5), Order: r.Float64()})
	}
	job := &Job[intKey, intKey, float64, string]{
		Name:        "secondary-sort",
		Source:      NewMemorySource(recs, 7),
		NumReducers: 5,
		Map: func(ctx *TaskContext, rec intKey, emit func(intKey, float64)) error {
			emit(rec, rec.Order)
			return nil
		},
		Partition:  intKeyPartition,
		Less:       intKeyLess,
		GroupEqual: intKeyGroup,
		Reduce: func(ctx *TaskContext, values *Values[intKey, float64], emit func(string)) error {
			prev := -1.0
			n := 0
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				if v < prev {
					return fmt.Errorf("out of order: %v after %v in part %d", v, prev, values.Key().Part)
				}
				prev = v
				n++
			}
			emit(fmt.Sprintf("part-%d:%d", values.GroupKey().Part, n))
			return nil
		},
	}
	res, err := Run(NewCluster(nil, 4, 4), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 5 {
		t.Errorf("groups = %v, want 5 parts", res.Output)
	}
	total := 0
	for _, o := range res.Output {
		var p, n int
		fmt.Sscanf(o, "part-%d:%d", &p, &n)
		total += n
	}
	if total != len(recs) {
		t.Errorf("reduced %d records, want %d", total, len(recs))
	}
}

// Early termination: a reducer that stops consuming mid-group must still
// let the engine proceed to following groups, and the consumed counter
// must reflect the skipped records.
func TestEarlyTerminationSkipsRest(t *testing.T) {
	var recs []intKey
	for part := 0; part < 3; part++ {
		for i := 0; i < 100; i++ {
			recs = append(recs, intKey{Part: part, Order: float64(i)})
		}
	}
	job := &Job[intKey, intKey, float64, string]{
		Name:        "early-term",
		Source:      NewMemorySource(recs, 4),
		NumReducers: 3,
		Map: func(ctx *TaskContext, rec intKey, emit func(intKey, float64)) error {
			emit(rec, rec.Order)
			return nil
		},
		Partition:  intKeyPartition,
		Less:       intKeyLess,
		GroupEqual: intKeyGroup,
		Reduce: func(ctx *TaskContext, values *Values[intKey, float64], emit func(string)) error {
			// Consume only the first 5 values of the group.
			for i := 0; i < 5; i++ {
				v, ok := values.Next()
				if !ok {
					return errors.New("group ended too early")
				}
				if v != float64(i) {
					return fmt.Errorf("value %d = %v", i, v)
				}
			}
			emit(fmt.Sprintf("part-%d", values.GroupKey().Part))
			return nil
		},
	}
	res, err := Run(NewCluster(nil, 2, 2), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 3 {
		t.Fatalf("output = %v, want 3 groups", res.Output)
	}
	if got := res.Counters[CounterValuesConsumed]; got != 15 {
		t.Errorf("values consumed = %d, want 15", got)
	}
	if got := res.Counters[CounterReduceValues]; got != 300 {
		t.Errorf("values total = %d, want 300", got)
	}
}

// A reducer that consumes nothing at all must still advance group by group.
func TestReducerConsumesNothing(t *testing.T) {
	var recs []intKey
	for part := 0; part < 4; part++ {
		for i := 0; i < 10; i++ {
			recs = append(recs, intKey{Part: part, Order: float64(i)})
		}
	}
	groups := 0
	job := &Job[intKey, intKey, float64, int]{
		Name:        "consume-nothing",
		Source:      NewMemorySource(recs, 2),
		NumReducers: 2,
		Map: func(ctx *TaskContext, rec intKey, emit func(intKey, float64)) error {
			emit(rec, rec.Order)
			return nil
		},
		Partition:  intKeyPartition,
		Less:       intKeyLess,
		GroupEqual: intKeyGroup,
		Reduce: func(ctx *TaskContext, values *Values[intKey, float64], emit func(int)) error {
			groups++
			return nil
		},
	}
	if _, err := Run(NewCluster(nil, 1, 1), job); err != nil {
		t.Fatal(err)
	}
	if groups != 4 {
		t.Errorf("saw %d groups, want 4", groups)
	}
}

// With a nil GroupEqual every record is its own group.
func TestNilGroupEqual(t *testing.T) {
	recs := []intKey{{0, 1}, {0, 2}, {0, 3}}
	groups := 0
	job := &Job[intKey, intKey, float64, int]{
		Name:        "nil-group",
		Source:      NewMemorySource(recs, 1),
		NumReducers: 1,
		Map: func(ctx *TaskContext, rec intKey, emit func(intKey, float64)) error {
			emit(rec, rec.Order)
			return nil
		},
		Partition: intKeyPartition,
		Less:      intKeyLess,
		Reduce: func(ctx *TaskContext, values *Values[intKey, float64], emit func(int)) error {
			groups++
			for {
				if _, ok := values.Next(); !ok {
					break
				}
			}
			return nil
		},
	}
	if _, err := Run(NewCluster(nil, 1, 1), job); err != nil {
		t.Fatal(err)
	}
	if groups != 3 {
		t.Errorf("groups = %d, want 3", groups)
	}
}

// Failure injection: tasks that fail once must be retried and succeed
// without duplicating counters or output.
func TestTaskRetrySucceeds(t *testing.T) {
	lines := []string{"a b c", "d e f", "a d"}
	job := wordCountJob(lines, 2)
	job.MaxAttempts = 3
	var failedOnce failSet
	job.FaultInjector = func(kind TaskKind, taskID, attempt int) error {
		key := fmt.Sprintf("%v-%d", kind, taskID)
		if attempt == 1 && !failedOnce.seen(key) {
			failedOnce.mark(key)
			return fmt.Errorf("injected failure for %s", key)
		}
		return nil
	}
	res, err := Run(NewCluster(nil, 2, 2), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters[CounterTaskRetries] == 0 {
		t.Error("no retries recorded")
	}
	if res.Counters[CounterMapRecordsIn] != 3 {
		t.Errorf("map.records.in = %d, want 3 (failed attempts must not count)", res.Counters[CounterMapRecordsIn])
	}
	got := map[string]int{}
	for _, o := range res.Output {
		parts := strings.SplitN(o, "=", 2)
		var n int
		fmt.Sscan(parts[1], &n)
		got[parts[0]] = n
	}
	want := map[string]int{"a": 2, "b": 1, "c": 1, "d": 2, "e": 1, "f": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("output after retries = %v, want %v", got, want)
	}
}

func TestTaskRetryExhausted(t *testing.T) {
	job := wordCountJob([]string{"a"}, 1)
	job.MaxAttempts = 2
	job.FaultInjector = func(kind TaskKind, taskID, attempt int) error {
		if kind == ReduceTask {
			return errors.New("persistent failure")
		}
		return nil
	}
	_, err := Run(NewCluster(nil, 1, 1), job)
	if !errors.Is(err, ErrTooManyFailures) {
		t.Errorf("err = %v, want ErrTooManyFailures", err)
	}
}

// failSet is a tiny concurrency-safe string set for fault injectors.
type failSet struct {
	mu sync.Mutex
	m  map[string]bool
}

func (s *failSet) seen(k string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

func (s *failSet) mark(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]bool)
	}
	s.m[k] = true
}

func TestValidation(t *testing.T) {
	base := func() *Job[string, string, int, string] { return wordCountJob([]string{"a"}, 1) }
	tests := []struct {
		name   string
		mutate func(*Job[string, string, int, string])
	}{
		{"nil source", func(j *Job[string, string, int, string]) { j.Source = nil }},
		{"nil map", func(j *Job[string, string, int, string]) { j.Map = nil }},
		{"nil reduce", func(j *Job[string, string, int, string]) { j.Reduce = nil }},
		{"zero reducers", func(j *Job[string, string, int, string]) { j.NumReducers = 0 }},
		{"nil partition", func(j *Job[string, string, int, string]) { j.Partition = nil }},
		{"nil less", func(j *Job[string, string, int, string]) { j.Less = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			j := base()
			tt.mutate(j)
			if _, err := Run(NewCluster(nil, 1, 1), j); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestPartitionOutOfRange(t *testing.T) {
	job := wordCountJob([]string{"a"}, 2)
	job.Partition = func(k string, r int) int { return 99 }
	if _, err := Run(NewCluster(nil, 1, 1), job); err == nil {
		t.Error("expected partition range error")
	}
}

func TestMemorySourceChunking(t *testing.T) {
	recs := []int{1, 2, 3, 4, 5, 6, 7}
	tests := []struct {
		splits     int
		wantChunks int
	}{
		{1, 1}, {2, 2}, {3, 3}, {7, 7}, {100, 7}, {0, 1},
	}
	for _, tt := range tests {
		src := NewMemorySource(recs, tt.splits)
		splits, err := src.Splits()
		if err != nil {
			t.Fatal(err)
		}
		if len(splits) != tt.wantChunks {
			t.Errorf("splits(%d) = %d chunks, want %d", tt.splits, len(splits), tt.wantChunks)
		}
		var all []int
		for _, s := range splits {
			s.Each(func(v int) bool { all = append(all, v); return true })
		}
		if !reflect.DeepEqual(all, recs) {
			t.Errorf("records = %v, want %v", all, recs)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	job := wordCountJob(nil, 2)
	res, err := Run(NewCluster(nil, 2, 2), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 0 {
		t.Errorf("output = %v, want empty", res.Output)
	}
	if res.Counters[CounterReduceGroups] != 0 {
		t.Error("groups reported for empty input")
	}
}

func TestMoreReducersThanSlots(t *testing.T) {
	// 16 reducers, 2 slots: tasks must run in waves and still all complete.
	var recs []intKey
	for p := 0; p < 16; p++ {
		recs = append(recs, intKey{Part: p, Order: 1})
	}
	job := &Job[intKey, intKey, int, int]{
		Name:        "waves",
		Source:      NewMemorySource(recs, 4),
		NumReducers: 16,
		Map: func(ctx *TaskContext, rec intKey, emit func(intKey, int)) error {
			emit(rec, 1)
			return nil
		},
		Partition:  intKeyPartition,
		Less:       intKeyLess,
		GroupEqual: intKeyGroup,
		Reduce: func(ctx *TaskContext, values *Values[intKey, int], emit func(int)) error {
			for {
				if _, ok := values.Next(); !ok {
					break
				}
			}
			emit(values.GroupKey().Part)
			return nil
		},
	}
	res, err := Run(NewCluster(nil, 2, 2), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 16 {
		t.Errorf("output = %v, want 16 parts", res.Output)
	}
	// Output must be in reduce-task order (deterministic).
	for i, p := range res.Output {
		if p != i {
			t.Errorf("output[%d] = %d, want %d (task order)", i, p, i)
		}
	}
}

func TestCountersRegistry(t *testing.T) {
	c := NewCounters()
	c.Add("x", 5)
	c.Add("x", 2)
	c.Add("y", 1)
	if got := c.Get("x"); got != 7 {
		t.Errorf("Get(x) = %d", got)
	}
	if got := c.Get("missing"); got != 0 {
		t.Errorf("Get(missing) = %d", got)
	}
	if names := c.Names(); !reflect.DeepEqual(names, []string{"x", "y"}) {
		t.Errorf("Names = %v", names)
	}
	snap := c.Snapshot()
	if snap["x"] != 7 || snap["y"] != 1 {
		t.Errorf("Snapshot = %v", snap)
	}
}

// TestReduceCleanupPerAttempt is the reduce-task lifecycle: Cleanup runs
// once per attempt after the last group, also for a task without records,
// and TaskContext.State is per attempt — never per lane. One reduce slot
// runs all five tasks on one reused context, and task 2's first attempt
// fails after its first group set State; a state left over from that
// attempt or from the lane's previous task would show in the sums.
func TestReduceCleanupPerAttempt(t *testing.T) {
	type acc struct{ groups, sum int }
	var recs []intKey
	for part := 0; part < 10; part++ {
		for order := 0; order <= part; order++ {
			recs = append(recs, intKey{Part: part, Order: float64(order)})
		}
	}
	job := &Job[intKey, intKey, int, string]{
		Name:        "lifecycle",
		Source:      NewMemorySource(recs, 3),
		NumReducers: 5,
		MaxAttempts: 2,
		Map: func(ctx *TaskContext, rec intKey, emit func(intKey, int)) error {
			emit(rec, 1)
			return nil
		},
		// Task 4 receives nothing.
		Partition:  func(k intKey, r int) int { return k.Part % (r - 1) },
		Less:       intKeyLess,
		GroupEqual: intKeyGroup,
		Reduce: func(ctx *TaskContext, values *Values[intKey, int], emit func(string)) error {
			st, _ := ctx.State.(*acc)
			if st == nil {
				st = &acc{}
				ctx.State = st
			}
			st.groups++
			for {
				v, ok := values.Next()
				if !ok {
					break
				}
				st.sum += v
			}
			if ctx.TaskID == 2 && ctx.Attempt == 1 {
				return errors.New("transient failure after the first group")
			}
			return nil
		},
		Cleanup: func(ctx *TaskContext, emit func(string)) error {
			st, _ := ctx.State.(*acc)
			if st == nil {
				emit(fmt.Sprintf("task %d: no groups", ctx.TaskID))
				return nil
			}
			emit(fmt.Sprintf("task %d: %d groups, %d records", ctx.TaskID, st.groups, st.sum))
			return nil
		},
	}
	res, err := Run(NewCluster(nil, 2, 1), job)
	if err != nil {
		t.Fatal(err)
	}
	// Task t holds parts t, t+4, t+8 < 10; part p has p+1 records.
	want := []string{
		"task 0: 3 groups, 15 records",
		"task 1: 3 groups, 18 records",
		"task 2: 2 groups, 10 records",
		"task 3: 2 groups, 12 records",
		"task 4: no groups",
	}
	if !reflect.DeepEqual(res.Output, want) {
		t.Errorf("output = %q\nwant %q", res.Output, want)
	}
	if got := res.Counters[CounterOutputRecords]; got != int64(len(want)) {
		t.Errorf("%s = %d, want %d: one Cleanup emission per task", CounterOutputRecords, got, len(want))
	}
	if got := res.Counters[CounterRetryReduce]; got != 1 {
		t.Errorf("%s = %d, want 1", CounterRetryReduce, got)
	}
}
