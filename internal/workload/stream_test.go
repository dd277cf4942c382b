package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	randv2 "math/rand/v2"
	"runtime"
	"testing"
	"unsafe"

	"jitgc/internal/trace"
)

// streamDigest is the SHA-256 of reqs, each request as four little-endian
// fields: Time, Kind, LPN and Pages.
func streamDigest(reqs []trace.Request) string {
	h := sha256.New()
	var b [25]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.Time))
		b[8] = byte(r.Kind)
		binary.LittleEndian.PutUint64(b[9:], uint64(r.LPN))
		binary.LittleEndian.PutUint64(b[17:], uint64(r.Pages))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// allGenerators is every generator: the six paper benchmarks, then the two
// TRIM-rich host profiles at a quarter trimmed.
func allGenerators() []Generator {
	return append(All(), NewFileChurn(0.25), NewLogStructured(0.25))
}

// The default device's working set: half its user capacity.
const defaultWorkingSet = 30624

// TestStreamsPinned holds every generator to a recorded digest of its
// whole stream, in three regimes: a dense stream over the default working
// set, a tenant's 27-page slice drawn from a PCG source, and the sparse
// 1M-request TPC-C stream over the 4GiB preset's working set, whose 321
// buffered writes are all the coalescing model ever sees. Where a case has
// a memory bound, what Generate allocates beyond its request slice must stay
// under it: the model's memory follows the pages a stream touches, not its
// LPN range.
func TestStreamsPinned(t *testing.T) {
	type tc struct {
		name     string
		gen      Generator
		p        Params
		maxExtra uint64 // bytes allocated beyond the request slice; 0 = unchecked
		want     string
	}
	var cases []tc
	dense := map[string]string{
		"YCSB":          "965753d4de2f8b51095473188b09da9e09ee80d69c8c3743aed2e73ccefe8d8f",
		"Postmark":      "a4862e0560e3817464fd23e39d70d1a8f73f64c92e9ba39347fc803655293f79",
		"Filebench":     "e790b27481be7080b09ad26bafc009970e2e45d13d6a35e12d2b4a5b9997dc2c",
		"Bonnie++":      "8fd57409991f87f05890c5c09ed0aad34e00f7fb86c7d7dcc5dc9a1d8c9713e7",
		"Tiobench":      "9833039dd8761cc9bd809fe774581c5f2c9c7a03a699aeae56a500d0c5342fdb",
		"TPC-C":         "ab623fd62954007ecfa95b40931992ddbcd46b002ad3af8e2a99d449cd7a4e75",
		"FileChurn":     "6a04dae79bd7693d4799d117688ba79821073ab13ecb0f0a764a9df41ac83ecd",
		"LogStructured": "e0b22a06f9b56333c9503bfd94b2a3024688d3911c329a80e387e78f4f890546",
	}
	for _, g := range allGenerators() {
		c := tc{name: "dense/" + g.Name(), gen: g, want: dense[g.Name()],
			p: Params{Seed: 1, Ops: 150000, WorkingSetPages: defaultWorkingSet}}
		if g.Name() == "YCSB" {
			c.maxExtra = 512 << 10
		}
		cases = append(cases, c)
	}
	slice := map[string]string{
		"YCSB":      "5ec34d07b6d0341995c01cf9d010e16434db3c3648213cbbed4a5956793f6ba8",
		"Postmark":  "3515aaf83db15d4da397f715b463b91f80ea6a139b01f8527a67b1e6a3fd17b7",
		"Filebench": "caf40e75271fa803ade3d6e15717f7b93f08f94f0227860e108ffdf762c24afd",
		"Bonnie++":  "aa79cd6b05bea9ac16074fbb57657b56d6af9e2076d4bcb333ee6696e57302e9",
		"Tiobench":  "98994691f11c45fedbcbffef1307eddf96fabf2ae66b4ff990730e4b7566df76",
		"TPC-C":     "c1c44a2e9c9bff810fe8d7dfda54fdf22cbe1ef92087531d3c5663393c552593",
	}
	for i, g := range All() {
		cases = append(cases, tc{name: "tenant/" + g.Name(), gen: g, want: slice[g.Name()],
			p: Params{Source: randv2.NewPCG(uint64(i)+1, 27), Ops: 20000, WorkingSetPages: 27}})
	}
	cases = append(cases, tc{name: "sparse/TPC-C", gen: NewTPCC(), maxExtra: 512 << 10,
		want: "526f35f9cd18e593b22ecd78d7fdce12e5aa43af38ee529288e0a9d5a5fe40fb",
		p:    Params{Seed: 1, Ops: 1000000, WorkingSetPages: 489988}})

	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reqs, err := c.gen.Generate(c.p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := streamDigest(reqs); got != c.want {
			t.Errorf("%s: stream digest %s, want %s", c.name, got, c.want)
		}
		if c.maxExtra > 0 {
			extra := after.TotalAlloc - before.TotalAlloc - uint64(cap(reqs))*uint64(unsafe.Sizeof(reqs[0]))
			if extra > c.maxExtra {
				t.Errorf("%s: allocated %d B beyond its request slice, want ≤ %d", c.name, extra, c.maxExtra)
			}
		}
	}
}

// BenchmarkGenerate measures each generator over the default working set,
// per request: the set-up a single-device run pays before its first step.
func BenchmarkGenerate(b *testing.B) {
	const ops = 150000
	for _, g := range allGenerators() {
		b.Run(g.Name(), func(b *testing.B) {
			p := Params{Seed: 1, Ops: ops, WorkingSetPages: defaultWorkingSet}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n := 0
			for b.Loop() {
				if _, err := g.Generate(p); err != nil {
					b.Fatal(err)
				}
				n++
			}
			runtime.ReadMemStats(&after)
			reqs := float64(n * ops)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/reqs, "ns/req")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/reqs, "B/req")
		})
	}
}
