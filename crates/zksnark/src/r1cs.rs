//! Rank-1 Constraint System (R1CS).
//!
//! The RLN statement ("my key is in the membership tree, and the nullifier
//! and secret share attached to this message are correctly derived from my
//! key and the epoch") is expressed as an R1CS: a list of constraints
//! `⟨A_i, z⟩ · ⟨B_i, z⟩ = ⟨C_i, z⟩` over the variable vector
//! `z = (1, instance…, witness…)`.
//!
//! This is the same intermediate representation Groth16 consumes; the
//! simulated backend in [`crate::snark`] proves satisfaction of exactly
//! these constraints.

use std::fmt;
use wakurln_crypto::field::Fr;

/// A variable in the constraint system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Variable {
    /// The constant `1` wire.
    One,
    /// The `i`-th public input.
    Instance(usize),
    /// The `i`-th private witness value.
    Witness(usize),
}

/// A sparse linear combination `Σ coeff · var`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinearCombination {
    terms: Vec<(Variable, Fr)>,
}

impl LinearCombination {
    /// The empty (zero) combination.
    pub fn zero() -> LinearCombination {
        LinearCombination::default()
    }

    /// A combination holding the constant `c`.
    pub fn constant(c: Fr) -> LinearCombination {
        LinearCombination::zero().add_term(Variable::One, c)
    }

    /// A combination holding a single variable with coefficient 1.
    pub fn from_var(v: Variable) -> LinearCombination {
        LinearCombination::zero().add_term(v, Fr::ONE)
    }

    /// Adds `coeff · var` and returns the extended combination.
    pub fn add_term(mut self, var: Variable, coeff: Fr) -> LinearCombination {
        if !coeff.is_zero() {
            self.terms.push((var, coeff));
        }
        self
    }

    /// Adds another combination scaled by `scale`.
    pub fn add_scaled(mut self, other: &LinearCombination, scale: Fr) -> LinearCombination {
        for (v, c) in &other.terms {
            let sc = *c * scale;
            if !sc.is_zero() {
                self.terms.push((*v, sc));
            }
        }
        self
    }

    /// Merges duplicate variables and drops zero coefficients.
    ///
    /// Linear combinations that are repeatedly folded into each other (as
    /// in the Poseidon MDS layer, where un-sboxed lanes mix every round)
    /// would otherwise grow exponentially in term count; reducing keeps the
    /// term count bounded by the number of distinct variables.
    pub fn reduce(mut self) -> LinearCombination {
        self.terms.sort_unstable_by_key(|(v, _)| *v);
        let mut out: Vec<(Variable, Fr)> = Vec::with_capacity(self.terms.len());
        for (v, c) in self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|(_, c)| !c.is_zero());
        LinearCombination { terms: out }
    }

    /// Number of (variable, coefficient) terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` if there are no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over the terms.
    pub fn iter(&self) -> impl Iterator<Item = &(Variable, Fr)> {
        self.terms.iter()
    }
}

impl From<Variable> for LinearCombination {
    fn from(v: Variable) -> LinearCombination {
        LinearCombination::from_var(v)
    }
}

/// One R1CS constraint `a · b = c` with a diagnostic label.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Left factor.
    pub a: LinearCombination,
    /// Right factor.
    pub b: LinearCombination,
    /// Product.
    pub c: LinearCombination,
    /// Human-readable origin (e.g. `"poseidon/sbox"`).
    pub label: &'static str,
}

/// Error returned when an assignment does not satisfy the system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsatisfiedConstraint {
    /// Index of the violated constraint.
    pub index: usize,
    /// Label of the violated constraint.
    pub label: &'static str,
}

impl fmt::Display for UnsatisfiedConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constraint #{} ({}) is not satisfied",
            self.index, self.label
        )
    }
}

impl std::error::Error for UnsatisfiedConstraint {}

/// An R1CS instance together with a (possibly partial) assignment.
///
/// The same type serves circuit *synthesis* (building constraints while
/// computing the assignment, prover side) and *shape extraction* (the list
/// of constraints, setup side).
///
/// # Examples
///
/// ```
/// use wakurln_zksnark::r1cs::{ConstraintSystem, LinearCombination};
/// use wakurln_crypto::field::Fr;
///
/// // prove knowledge of x with x * x = 9
/// let mut cs = ConstraintSystem::new();
/// let nine = cs.alloc_instance(Fr::from_u64(9));
/// let x = cs.alloc_witness(Fr::from_u64(3));
/// cs.enforce(
///     "square",
///     LinearCombination::from_var(x),
///     LinearCombination::from_var(x),
///     LinearCombination::from_var(nine),
/// );
/// assert!(cs.is_satisfied().is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct ConstraintSystem {
    instance: Vec<Fr>,
    witness: Vec<Fr>,
    constraints: Vec<Constraint>,
}

impl ConstraintSystem {
    /// Creates an empty system.
    pub fn new() -> ConstraintSystem {
        ConstraintSystem::default()
    }

    /// Allocates a public-input variable carrying `value`.
    pub fn alloc_instance(&mut self, value: Fr) -> Variable {
        self.instance.push(value);
        Variable::Instance(self.instance.len() - 1)
    }

    /// Allocates a private witness variable carrying `value`.
    pub fn alloc_witness(&mut self, value: Fr) -> Variable {
        self.witness.push(value);
        Variable::Witness(self.witness.len() - 1)
    }

    /// Adds the constraint `a · b = c`.
    pub fn enforce(
        &mut self,
        label: &'static str,
        a: LinearCombination,
        b: LinearCombination,
        c: LinearCombination,
    ) {
        self.constraints.push(Constraint { a, b, c, label });
    }

    /// Convenience: enforce that two combinations are equal
    /// (`(a - c) · 1 = 0`).
    pub fn enforce_equal(
        &mut self,
        label: &'static str,
        a: LinearCombination,
        c: LinearCombination,
    ) {
        self.enforce(label, a, LinearCombination::constant(Fr::ONE), c);
    }

    /// Evaluates a linear combination under the current assignment.
    pub fn eval(&self, lc: &LinearCombination) -> Fr {
        let mut acc = Fr::ZERO;
        for (v, c) in lc.iter() {
            let val = match v {
                Variable::One => Fr::ONE,
                Variable::Instance(i) => self.instance[*i],
                Variable::Witness(i) => self.witness[*i],
            };
            acc += val * *c;
        }
        acc
    }

    /// Returns the value currently assigned to `v`.
    pub fn value_of(&self, v: Variable) -> Fr {
        match v {
            Variable::One => Fr::ONE,
            Variable::Instance(i) => self.instance[i],
            Variable::Witness(i) => self.witness[i],
        }
    }

    /// Checks every constraint against the assignment.
    ///
    /// # Errors
    ///
    /// Returns the first [`UnsatisfiedConstraint`] encountered.
    pub fn is_satisfied(&self) -> Result<(), UnsatisfiedConstraint> {
        for (index, con) in self.constraints.iter().enumerate() {
            let a = self.eval(&con.a);
            let b = self.eval(&con.b);
            let c = self.eval(&con.c);
            if a * b != c {
                return Err(UnsatisfiedConstraint {
                    index,
                    label: con.label,
                });
            }
        }
        Ok(())
    }

    /// Checks every constraint, fanning evaluation out across worker
    /// threads (the prover's hot path; behaves exactly like
    /// [`ConstraintSystem::is_satisfied`], including reporting the *first*
    /// violated constraint).
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`UnsatisfiedConstraint`].
    pub fn is_satisfied_par(&self) -> Result<(), UnsatisfiedConstraint> {
        let violations =
            crate::parallel::par_chunk_map(&self.constraints, 2048, |offset, chunk| {
                chunk.iter().enumerate().find_map(|(i, con)| {
                    let a = self.eval(&con.a);
                    let b = self.eval(&con.b);
                    let c = self.eval(&con.c);
                    (a * b != c).then_some(UnsatisfiedConstraint {
                        index: offset + i,
                        label: con.label,
                    })
                })
            });
        match violations.into_iter().flatten().min_by_key(|u| u.index) {
            Some(unsatisfied) => Err(unsatisfied),
            None => Ok(()),
        }
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of public-input variables (excluding the constant one).
    pub fn num_instance(&self) -> usize {
        self.instance.len()
    }

    /// Number of witness variables.
    pub fn num_witness(&self) -> usize {
        self.witness.len()
    }

    /// The public-input assignment.
    pub fn instance_values(&self) -> &[Fr] {
        &self.instance
    }

    /// The witness assignment.
    pub fn witness_values(&self) -> &[Fr] {
        &self.witness
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Serialized size (bytes) of the constraint matrices, used to model
    /// the prover-key size for the E3 storage experiment (a Groth16 proving
    /// key is linear in the number of constraint-matrix entries).
    pub fn matrix_bytes(&self) -> usize {
        // one (variable tag + index + 32-byte coefficient) entry ≈ 40 bytes
        self.constraints
            .iter()
            .map(|c| (c.a.len() + c.b.len() + c.c.len()) * 40)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfied_square() {
        let mut cs = ConstraintSystem::new();
        let nine = cs.alloc_instance(Fr::from_u64(9));
        let x = cs.alloc_witness(Fr::from_u64(3));
        cs.enforce(
            "sq",
            LinearCombination::from_var(x),
            LinearCombination::from_var(x),
            LinearCombination::from_var(nine),
        );
        assert!(cs.is_satisfied().is_ok());
        assert_eq!(cs.num_constraints(), 1);
        assert_eq!(cs.num_instance(), 1);
        assert_eq!(cs.num_witness(), 1);
    }

    #[test]
    fn unsatisfied_reports_label_and_index() {
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_witness(Fr::from_u64(4));
        cs.enforce(
            "bad-square",
            LinearCombination::from_var(x),
            LinearCombination::from_var(x),
            LinearCombination::constant(Fr::from_u64(9)),
        );
        let err = cs.is_satisfied().unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.label, "bad-square");
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn linear_combination_arithmetic() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(5));
        let b = cs.alloc_witness(Fr::from_u64(7));
        let lc = LinearCombination::zero()
            .add_term(a, Fr::from_u64(2))
            .add_term(b, Fr::from_u64(3))
            .add_term(Variable::One, Fr::from_u64(100));
        assert_eq!(cs.eval(&lc), Fr::from_u64(2 * 5 + 3 * 7 + 100));
    }

    #[test]
    fn add_scaled_combines() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(4));
        let base = LinearCombination::from_var(a);
        let scaled = LinearCombination::constant(Fr::ONE).add_scaled(&base, Fr::from_u64(10));
        assert_eq!(cs.eval(&scaled), Fr::from_u64(41));
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let lc = LinearCombination::zero().add_term(Variable::One, Fr::ZERO);
        assert!(lc.is_empty());
    }

    #[test]
    fn enforce_equal_is_satisfied_only_on_equality() {
        let mut cs = ConstraintSystem::new();
        let a = cs.alloc_witness(Fr::from_u64(5));
        let b = cs.alloc_witness(Fr::from_u64(5));
        cs.enforce_equal(
            "eq",
            LinearCombination::from_var(a),
            LinearCombination::from_var(b),
        );
        assert!(cs.is_satisfied().is_ok());

        let mut cs2 = ConstraintSystem::new();
        let a = cs2.alloc_witness(Fr::from_u64(5));
        let b = cs2.alloc_witness(Fr::from_u64(6));
        cs2.enforce_equal(
            "eq",
            LinearCombination::from_var(a),
            LinearCombination::from_var(b),
        );
        assert!(cs2.is_satisfied().is_err());
    }

    #[test]
    fn matrix_bytes_scales_with_terms() {
        let mut cs = ConstraintSystem::new();
        let x = cs.alloc_witness(Fr::ONE);
        cs.enforce(
            "t",
            LinearCombination::from_var(x),
            LinearCombination::from_var(x),
            LinearCombination::from_var(x),
        );
        assert_eq!(cs.matrix_bytes(), 3 * 40);
    }
}
