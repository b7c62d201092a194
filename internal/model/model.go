// Package model implements the theoretical parallel-efficiency model of
// section 8, equations 5-21: efficiency as a function of the parallel
// grain size N (nodes per subregion), the decomposition geometry constant
// m, the processor speed U_calc, and the network speed (U_com for a
// point-to-point network, V_com for a shared bus whose communication time
// grows with P-1).
package model

import "math"

// SurfaceNodes2D returns N_c = m sqrt(N), equation 15.
func SurfaceNodes2D(m int, n float64) float64 { return float64(m) * math.Sqrt(n) }

// SurfaceNodes3D returns N_c = m N^(2/3), equation 16.
func SurfaceNodes3D(m int, n float64) float64 { return float64(m) * math.Pow(n, 2.0/3.0) }

// Efficiency2D is equation 17: a fixed-capacity (point-to-point) network,
// f = (1 + N^-1/2 m Ucalc/Ucom)^-1.
func Efficiency2D(n float64, m int, ucalcOverUcom float64) float64 {
	return 1 / (1 + math.Pow(n, -0.5)*float64(m)*ucalcOverUcom)
}

// Efficiency3D is equation 18: f = (1 + N^-1/3 m Ucalc/Ucom)^-1.
func Efficiency3D(n float64, m int, ucalcOverUcom float64) float64 {
	return 1 / (1 + math.Pow(n, -1.0/3.0)*float64(m)*ucalcOverUcom)
}

// SharedBusEfficiency2D is equation 20: on a shared bus the communication
// time grows with the number of processors,
// f = (1 + N^-1/2 (P-1) m Ucalc/Vcom)^-1. The paper plots figures 12 and
// 13 with Ucalc/Vcom = 2/3.
func SharedBusEfficiency2D(n float64, p, m int, ucalcOverVcom float64) float64 {
	return 1 / (1 + math.Pow(n, -0.5)*float64(p-1)*float64(m)*ucalcOverVcom)
}

// SharedBusEfficiency3D is equation 21: the 3D analogue with the 5/6
// prefactor that converts the 2D calibration of Ucalc/Vcom to 3D (the 3D
// computation is half as fast per node and each 3D boundary node carries
// 5/3 as much data: (5/3)/2 = 5/6).
func SharedBusEfficiency3D(n float64, p, m int, ucalcOverVcom float64) float64 {
	return 1 / (1 + 5.0/6.0*math.Pow(n, -1.0/3.0)*float64(p-1)*float64(m)*ucalcOverVcom)
}

// PaperCalibration is the Ucalc/Vcom ratio the paper uses in figures 12
// and 13.
const PaperCalibration = 2.0 / 3.0

// Speedup converts efficiency to speedup S = f * P (equation 7).
func Speedup(f float64, p int) float64 { return f * float64(p) }

// MigrationOverhead returns the fractional slowdown of a computation that
// pays costSec of downtime every intervalSec (section 5.1: one ~30 s
// migration every ~45 minutes, an insignificant cost).
func MigrationOverhead(costSec, intervalSec float64) float64 {
	return costSec / (intervalSec + costSec)
}
