//go:build amd64 && !purego

package tensor

// The polar kernel (rng_amd64.s) transforms accepted polar-method pairs four
// float64 lanes to a YMM register. Its logarithm is the operation sequence
// of Go's amd64 math.Log (archLog in log_amd64.s), which uses neither FMA
// nor a table, so each lane is bitwise normScalar's (package comment,
// "Random variates").

// normKernel selects the kernel over normScalar.
var normKernel = cpuAVX2

// normLanes is the block the kernel takes.
const normLanes = 4

// polarKernel sets dst[i] = mean + float32(std*polar(u[i], s[i])) for i < n,
// n a multiple of normLanes, every s in (0, 1).
//
//go:noescape
func polarKernel(dst *float32, u, s *float64, n int, mean, std float32)

// logKernel sets dst[i] = math.Log(src[i]) for i < n, n a multiple of
// normLanes, every src positive and finite: polarKernel's logarithm alone,
// so a test can hold it to math.Log bit for bit.
//
//go:noescape
func logKernel(dst, src *float64, n int)

func normVec(dst []float32, us, ss []float64, mean, std float32) {
	i := 0
	if normKernel {
		if i = len(dst) &^ (normLanes - 1); i > 0 {
			polarKernel(&dst[0], &us[0], &ss[0], i, mean, std)
		}
	}
	normScalar(dst[i:], us[i:], ss[i:], mean, std)
}
