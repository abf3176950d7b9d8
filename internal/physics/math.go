// Package physics implements the 6-DOF quadrotor rigid-body model that
// stands in for the paper's prototype drone (Raspberry Pi 3B + Navio2
// airframe flown under Vicon). It provides vector/quaternion math, a
// first-order rotor model with thrust and drag-torque maps, and a
// fixed-step integrator with ground-collision (crash) detection.
//
// Conventions: world frame is ENU-like with Z up; body frame is
// front-left-up; attitude is the body-to-world rotation quaternion.
package physics

import "math"

// Vec3 is a 3-component vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalized returns v scaled to unit length; the zero vector is
// returned unchanged.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Clamp returns v with each component limited to [-limit, limit].
func (v Vec3) Clamp(limit float64) Vec3 {
	return Vec3{clamp(v.X, limit), clamp(v.Y, limit), clamp(v.Z, limit)}
}

func clamp(x, limit float64) float64 {
	if x > limit {
		return limit
	}
	if x < -limit {
		return -limit
	}
	return x
}

// Quat is a unit quaternion (W + Xi + Yj + Zk) representing a rotation.
type Quat struct{ W, X, Y, Z float64 }

// IdentityQuat returns the no-rotation quaternion.
func IdentityQuat() Quat { return Quat{W: 1} }

// Mul returns the Hamilton product q*r (apply r, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{q.W, -q.X, -q.Y, -q.Z} }

// Norm returns the quaternion magnitude.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalized returns q scaled to unit magnitude. A zero quaternion
// becomes the identity, which keeps integrators well-defined.
func (q Quat) Normalized() Quat {
	n := q.Norm()
	if n == 0 {
		return IdentityQuat()
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Rotate applies the rotation to a vector: q v q*.
func (q Quat) Rotate(v Vec3) Vec3 {
	// Efficient form: t = 2 q_vec × v; v' = v + w t + q_vec × t.
	qv := Vec3{q.X, q.Y, q.Z}
	t := qv.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(qv.Cross(t))
}

// UpVector returns the body Z axis expressed in the world frame:
// Rotate(Vec3{Z: 1}) with the zero terms folded away. The arithmetic
// mirrors Rotate's cross-product form operation for operation, so the
// result is bit-identical (TestUpVectorMatchesRotate enforces this).
func (q Quat) UpVector() Vec3 {
	// t = 2 qv × (0,0,1) = (2y, −2x, 0); v' = v + w·t + qv × t.
	tx := 2 * q.Y
	ty := -(2 * q.X)
	return Vec3{
		X: q.W*tx + (q.Y*0 - q.Z*ty),
		Y: q.W*ty + (q.Z*tx - q.X*0),
		Z: 1 + (q.X*ty - q.Y*tx),
	}
}

// FromAxisAngle builds a quaternion rotating by angle (radians) about
// the given axis (need not be normalized).
func FromAxisAngle(axis Vec3, angle float64) Quat {
	a := axis.Normalized()
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: a.X * s, Y: a.Y * s, Z: a.Z * s}
}

// FromEuler builds a body-to-world quaternion from roll (about X),
// pitch (about Y), yaw (about Z), applied in yaw-pitch-roll order
// (aerospace ZYX convention).
func FromEuler(roll, pitch, yaw float64) Quat {
	sr, cr := math.Sincos(roll / 2)
	sp, cp := math.Sincos(pitch / 2)
	sy, cy := math.Sincos(yaw / 2)
	return Quat{
		W: cr*cp*cy + sr*sp*sy,
		X: sr*cp*cy - cr*sp*sy,
		Y: cr*sp*cy + sr*cp*sy,
		Z: cr*cp*sy - sr*sp*cy,
	}
}

// Euler extracts (roll, pitch, yaw) in the ZYX convention. Pitch is
// clamped to ±π/2 at the gimbal-lock boundary.
func (q Quat) Euler() (roll, pitch, yaw float64) {
	// roll (x-axis rotation)
	sinr := 2 * (q.W*q.X + q.Y*q.Z)
	cosr := 1 - 2*(q.X*q.X+q.Y*q.Y)
	roll = math.Atan2(sinr, cosr)

	// pitch (y-axis rotation)
	sinp := 2 * (q.W*q.Y - q.Z*q.X)
	if sinp >= 1 {
		pitch = math.Pi / 2
	} else if sinp <= -1 {
		pitch = -math.Pi / 2
	} else {
		pitch = math.Asin(sinp)
	}

	// yaw (z-axis rotation)
	siny := 2 * (q.W*q.Z + q.X*q.Y)
	cosy := 1 - 2*(q.Y*q.Y+q.Z*q.Z)
	yaw = math.Atan2(siny, cosy)
	return
}

// Integrate advances the quaternion by body angular rate omega
// (rad/s) over dt seconds using the exponential map, then normalizes.
//
// It is FromAxisAngle(omega, |omega|·dt), then q.Mul(dq).Normalized(),
// written out on scalars so the airframe tick pays one call for the
// whole update. Every operation keeps its operands and association, so
// the result is bit-identical to the composed form
// (TestQuatIntegrateMatchesReference).
func (q Quat) Integrate(omega Vec3, dt float64) Quat {
	n := omega.Norm()
	angle := n * dt
	if angle == 0 {
		return q
	}
	// The half-angle of one 100 µs step is ~1e-4 rad, deep inside the
	// first octant, so the reduction-free sincos kernel applies on the
	// hot path.
	inv := 1 / n
	half := angle / 2
	var s, c float64
	if sincosSmallOK(half) {
		s, c = sincosSmall(half)
	} else {
		s, c = math.Sincos(half)
	}
	dx, dy, dz := omega.X*inv*s, omega.Y*inv*s, omega.Z*inv*s
	w := q.W*c - q.X*dx - q.Y*dy - q.Z*dz
	x := q.W*dx + q.X*c + q.Y*dz - q.Z*dy
	y := q.W*dy - q.X*dz + q.Y*c + q.Z*dx
	z := q.W*dz + q.X*dy - q.Y*dx + q.Z*c
	m := math.Sqrt(w*w + x*x + y*y + z*z)
	if m == 0 {
		return IdentityQuat()
	}
	return Quat{w / m, x / m, y / m, z / m}
}

// CosTilt returns the cosine of TiltAngle, clamped to [-1, 1]. Cosine
// is monotone decreasing on [0, π], so threshold comparisons against a
// precomputed cosine avoid the arccosine on hot paths.
func (q Quat) CosTilt() float64 {
	c := q.UpVector().Z
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// TiltAngle returns the angle in radians between the body Z axis and
// the world Z axis — the single-number "how far from level" measure
// used by the crash envelope and the attitude-error rule.
func (q Quat) TiltAngle() float64 {
	return math.Acos(q.CosTilt())
}
