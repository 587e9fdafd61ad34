package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/workload"
)

// encodeSHA256 pins the bytes Encode writes for every generated workload
// app at 5k micro-ops (seed 0). Trace-store digests are hashes of these
// bytes, so an in-memory layout change must leave every one in place.
var encodeSHA256 = map[string]string{
	"500.perlbench_1": "0102c86bf829fab7dbf7ed8b39705191c7742366c8e6f096c1b3ca43e0739484",
	"500.perlbench_2": "2185685cedb8f995eed7577cdeb3f4cbeaf02c035e4728706fbfa3dbbe3d37f1",
	"500.perlbench_3": "2b8ebdeaa7bf1687bc90bab3414ba15f8e372bae0738eee2b99526d4129c2348",
	"502.gcc_1":       "252872ab639f09f2aa3eee51726f06d4e011e5c7ae124372c50fcbb3d54a77c2",
	"502.gcc_2":       "701d2989ccb1b41845a10e6670153c04064382c8b0a2a3f47668ced7b9b322b7",
	"502.gcc_3":       "7319a849dafa9bd512cbe0269d5d8b4fe56701330a98c874f8606c084109bc51",
	"502.gcc_4":       "214065fb58b50fa9565c8911dedb586772eb73cedc5cbb56c1bc886a81c47fcc",
	"502.gcc_5":       "ad69fc0afc256567eca25693e68ae5e61a8d8d10ea0ef797be7eac21c332e25c",
	"503.bwaves":      "2cf997a72282416f95d1b359d8cb777ca2ae6403d52757fc063b3415532569c3",
	"505.mcf":         "c97d610c935f0e1b1f918591d4f632aefc5e30b65c647d18f12dbf970c70294c",
	"507.cactuBSSN":   "6ea741d8efe12f413d565a7e85c378949d13fa7294dea9ca392138611e53b390",
	"508.namd":        "39527c945ebbc2592eaabd7ba0293262f1f78eb0b2eb7eb44c12e9f8e840cc11",
	"510.parest":      "ba5fc2e6541c4f454d5c80f27fde7ef8c733cc643861d0dccdc6cba840e968bf",
	"511.povray":      "2dc87149cd1a87d06cf7ec3c60b4544289cd359a9294487883d8677f6ee43fcc",
	"519.lbm":         "d8a4b38020b4baf89c891d0061b92a48d28e979dfb6b818afd01263769fbd149",
	"520.omnetpp":     "41b4de61cd78b30007619e3e33f700777bb708c6371791f163dd76764659cfc8",
	"521.wrf":         "409d38fb5183d022b8a473741e8619451ed96b11af22f4eb7c9cb2637bcf223c",
	"523.xalancbmk":   "ce8989e18351fe47b5f71be57e3359ee9a16f7192aceb6f4681680e0ff12202a",
	"525.x264_1":      "5515ea3645b888adb721428da50d0c9bf10298a0151b9667ef5d6df9c0e0f09e",
	"525.x264_2":      "4ca0b6a3b00d03922633db5516cb62aaf33e29e0e426f48116d659eab9da5656",
	"525.x264_3":      "962e9284d5ccbd7dcf05b4941cae9a0a742116dbdb720f44c1e81b025ec7c1bf",
	"526.blender":     "2f8d036e73fa01bd79c24a0a5fe6bd1a963eea99fb093834a32f099c26099fb7",
	"527.cam4":        "6dc4db9ec84b13b26c5daf9c7d3e608b0343e0afacb886571caf1c42e541e6d3",
	"531.deepsjeng":   "b6c85c30be20791b9faf39f45c4124d32f70d839c4d1f77a64f3b08c993be6fc",
	"538.imagick":     "905398da37bbaad791da099086a736d2769da8062446a1608c6fa1a32d8b9cf3",
	"541.leela":       "70b42deeae8108de48b1215885fb8da0de7ede5384eb10896723b62f383567d6",
	"544.nab":         "7fd32b8d25845786d512429a9831503f4bb1d1787d225db7509ababedff339ff",
	"548.exchange2":   "b14d5874cfee60a57a78a1529aea8984795f61104bf0832ddc8234bea0a44dd9",
	"549.fotonik3d":   "62fa2c1e024913ad5c24dfab3d972fafa971cffbdea6fa3d4ee76daaef2d904a",
	"554.roms":        "5566d552fb582e3dca359eae0513d4b3e0fc811eae8536009f02d0aacec22c91",
	"557.xz_1":        "1a9b4723a31cd7712048e141871d46ac7e95272788ce2a070368ce6f4dbd2c89",
	"557.xz_2":        "3d042b000dd26cf4166d88c8941009508b81b1b149068dd53a347f31d4036a5e",
}

func TestEncodeBytesPinned(t *testing.T) {
	if got, want := len(workload.Names()), len(encodeSHA256); got != want {
		t.Errorf("the suite has %d apps, the pin %d", got, want)
	}
	for _, p := range workload.Suite() {
		var buf bytes.Buffer
		if err := Generate(p, 5000, 0).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != encodeSHA256[p.Name] {
			t.Errorf("%s: Encode SHA-256 %s, want %s", p.Name, got, encodeSHA256[p.Name])
		}
	}
}

// sliceBytes sums the capacity in bytes of every slice field of the struct
// v points to.
func sliceBytes(v any) int {
	rv := reflect.ValueOf(v).Elem()
	n := 0
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Slice {
			n += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	return n
}

// TestResidentBytesPerUop pins what an interned trace keeps resident per
// micro-op: its Insts, every slice Pre attaches and one branch-outcome
// memo must stay at or under 25 bytes, so a field added to isa.Inst or a
// per-µop array added to Prefixes fails here rather than regrowing memory.
func TestResidentBytesPerUop(t *testing.T) {
	for _, app := range []string{"511.povray", "505.mcf", "541.leela"} {
		tr := testTrace(t, app, 100_000)
		out, err := tr.BranchOutcomes("tage", 1)
		if err != nil {
			t.Fatal(err)
		}
		bytes := cap(tr.Insts)*int(unsafe.Sizeof(isa.Inst{})) + sliceBytes(tr.Pre()) + sliceBytes(out)
		if per := float64(bytes) / float64(tr.Len()); per > 25 {
			t.Errorf("%s: %.2f resident bytes per µop, want <= 25", app, per)
		}
	}
}

// readerOnly hides any Len method of the reader it wraps.
type readerOnly struct{ io.Reader }

// TestDecodeBoundsClaimedCount: a payload of a few bytes that claims
// 2^32-1 micro-ops fails at its end with bounded allocation, whether or not
// the reader reports its length.
func TestDecodeBoundsClaimedCount(t *testing.T) {
	payload := []byte{'M', 'D', 'P', 'T', codecVersion, 0}
	payload = binary.AppendUvarint(payload, 1<<32-1)
	payload = append(payload, byte(isa.Nop), 2, 0, 0, 0) // one µop of the claimed billions
	if len(payload) > 16 {
		t.Fatalf("payload is %d bytes, want <= 16", len(payload))
	}
	for _, tc := range []struct {
		name string
		r    func() io.Reader
	}{
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(payload) }},
		{"plain reader", func() io.Reader { return readerOnly{bytes.NewReader(payload)} }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(tc.r())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a payload claiming 2^32-1 µops decoded", tc.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes, want < 1 MB", tc.name, alloc)
		}
	}
}

// TestDecodeAllocsConstant: decoding from a reader that reports its length
// makes the same small number of allocations at any trace length, and a
// plain reader, which grows Insts past decodeChunk, decodes the same trace.
func TestDecodeAllocsConstant(t *testing.T) {
	allocs := func(n int) (float64, []byte) {
		var buf bytes.Buffer
		if err := testTrace(t, "511.povray", n).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		return testing.AllocsPerRun(5, func() {
			if _, err := Decode(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
		}), raw
	}
	short, _ := allocs(1000)
	long, raw := allocs(100_000)
	if long != short || long > 12 {
		t.Errorf("Decode makes %v allocations at 1k µops and %v at 100k, want one constant <= 12", short, long)
	}
	want, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(readerOnly{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Insts, want.Insts) || got.Name != want.Name {
		t.Error("a plain reader decodes a different trace")
	}
}
