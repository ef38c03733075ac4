//! Chaincodes: deterministic functions from state to read/write sets.
//!
//! An endorser *simulates* a chaincode against its committed state and signs
//! the resulting read/write set. The two chaincodes used in the paper's
//! evaluation are implemented:
//!
//! * [`IncrementChaincode`] — the Table II conflict workload: reads one of
//!   100 integer counters and writes it incremented;
//! * [`PayloadChaincode`] — the Fig. 4–14 dissemination workload, modeled on
//!   the `fabric-samples` high-throughput example: each invocation writes a
//!   fresh delta key (no read conflicts) and pads the transaction to a
//!   target size, producing the paper's ~160 KB blocks.

use std::fmt;

use fabric_types::rwset::{Key, RwSet, Value};

use crate::state::StateReader;

/// Failure modes of chaincode simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaincodeError {
    /// The invocation arguments were malformed.
    BadArguments(String),
}

impl fmt::Display for ChaincodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaincodeError::BadArguments(msg) => write!(f, "bad chaincode arguments: {msg}"),
        }
    }
}

impl std::error::Error for ChaincodeError {}

/// Invocation input: the argument list of a proposal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaincodeInput {
    /// Positional string arguments, chaincode-specific.
    pub args: Vec<String>,
}

impl ChaincodeInput {
    /// Builds an input from anything yielding string-likes.
    pub fn new<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ChaincodeInput {
            args: args.into_iter().map(Into::into).collect(),
        }
    }
}

/// A deterministic smart contract.
///
/// Determinism matters: Fabric executes the same chaincode on multiple
/// mutually untrusted endorsers and compares the resulting read/write sets.
pub trait Chaincode {
    /// The chaincode's registered name: a constant of the chaincode's type,
    /// stored by reference in every transaction it endorses
    /// ([`Transaction::chaincode`](fabric_types::transaction::Transaction::chaincode)).
    fn name(&self) -> &'static str;

    /// Simulates the invocation against `state`, producing the read/write
    /// set an endorser would sign.
    ///
    /// # Errors
    ///
    /// Returns [`ChaincodeError::BadArguments`] for malformed inputs.
    fn simulate(
        &self,
        input: &ChaincodeInput,
        state: &dyn StateReader,
    ) -> Result<RwSet, ChaincodeError>;
}

/// The Table II workload: increments one named integer counter.
///
/// `args[0]` is the counter key. The read set records the version (and
/// implied value) observed; two increments endorsed over the same version
/// produce a validation-time conflict, earliest writer wins.
#[derive(Debug, Clone, Default)]
pub struct IncrementChaincode;

impl Chaincode for IncrementChaincode {
    fn name(&self) -> &'static str {
        "increment"
    }

    fn simulate(
        &self,
        input: &ChaincodeInput,
        state: &dyn StateReader,
    ) -> Result<RwSet, ChaincodeError> {
        let key = Key::new(
            input
                .args
                .first()
                .ok_or_else(|| ChaincodeError::BadArguments("missing counter key".into()))?
                .as_str(),
        );
        let (current, version) = match state.get(&key) {
            Some((v, ver)) => {
                let n = v.as_u64().ok_or_else(|| {
                    ChaincodeError::BadArguments(format!("key {key} does not hold a counter"))
                })?;
                (n, Some(ver))
            }
            None => (0, None),
        };
        // One allocation for the key: the read and the write share it.
        Ok(RwSet::builder()
            .read(key.clone(), version)
            .write_u64(key, current + 1)
            .build())
    }
}

/// The dissemination workload: writes a unique delta key with a padded
/// value, conflict-free by construction.
///
/// `args[0]` is the unique row name (the workload generator uses the
/// transaction id). The value is padded so the whole transaction reaches
/// `tx_size` bytes on the wire once framed — with 50 transactions per block
/// and `tx_size ≈ 3.2 KB` this matches the paper's ~160 KB blocks.
#[derive(Debug, Clone)]
pub struct PayloadChaincode {
    /// Target padded payload size per transaction, in bytes.
    pub payload_bytes: usize,
}

impl PayloadChaincode {
    /// Creates the chaincode with a per-transaction payload size.
    pub fn new(payload_bytes: usize) -> Self {
        PayloadChaincode { payload_bytes }
    }
}

impl Chaincode for PayloadChaincode {
    fn name(&self) -> &'static str {
        "high-throughput"
    }

    fn simulate(
        &self,
        input: &ChaincodeInput,
        _state: &dyn StateReader,
    ) -> Result<RwSet, ChaincodeError> {
        let row = input
            .args
            .first()
            .ok_or_else(|| ChaincodeError::BadArguments("missing delta row name".into()))?;
        // The value itself stays tiny; transaction padding carries the bulk
        // (see `Transaction::payload_padding`), so the state DB does not
        // balloon during long dissemination runs.
        Ok(RwSet::builder()
            .write(Key::concat("delta:", row), Value::from_u64(1))
            .build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateDb;
    use fabric_types::rwset::{Version, WriteItem};

    #[test]
    fn increment_of_absent_key_starts_at_one() {
        let state = StateDb::new();
        let rwset = IncrementChaincode
            .simulate(&ChaincodeInput::new(["counter7"]), &state)
            .unwrap();
        assert_eq!(rwset.reads[0].version, None);
        assert_eq!(rwset.writes[0].value.as_u64(), Some(1));
    }

    /// An increment builds its counter's key once: a short key is held
    /// inline by the read and the write, a long one is shared by both.
    #[test]
    fn held_once_increment_reads_and_writes_one_key() {
        let rwset = IncrementChaincode
            .simulate(&ChaincodeInput::new(["counter7"]), &StateDb::new())
            .unwrap();
        let (read, write) = (&rwset.reads[0].key, &rwset.writes[0].key);
        assert!(crate::held_inline(read, read.as_bytes()));
        assert!(crate::held_inline(write, write.as_bytes()));
        let rwset = IncrementChaincode
            .simulate(
                &ChaincodeInput::new(["counter-past-sixteen"]),
                &StateDb::new(),
            )
            .unwrap();
        assert_eq!(
            rwset.reads[0].key.as_bytes().as_ptr(),
            rwset.writes[0].key.as_bytes().as_ptr()
        );
    }

    #[test]
    fn increment_reads_version_and_bumps_value() {
        let mut state = StateDb::new();
        state.apply(
            Version::new(4, 2),
            &[WriteItem {
                key: Key::from("counter7"),
                value: Value::from_u64(41),
            }],
        );
        let rwset = IncrementChaincode
            .simulate(&ChaincodeInput::new(["counter7"]), &state)
            .unwrap();
        assert_eq!(rwset.reads[0].version, Some(Version::new(4, 2)));
        assert_eq!(rwset.writes[0].value.as_u64(), Some(42));
    }

    #[test]
    fn increment_rejects_missing_or_non_counter_args() {
        let mut state = StateDb::new();
        assert!(matches!(
            IncrementChaincode.simulate(&ChaincodeInput::default(), &state),
            Err(ChaincodeError::BadArguments(_))
        ));
        state.apply(
            Version::new(1, 0),
            &[WriteItem {
                key: Key::from("blob"),
                value: Value::from_bytes(&[1, 2, 3]),
            }],
        );
        assert!(IncrementChaincode
            .simulate(&ChaincodeInput::new(["blob"]), &state)
            .is_err());
    }

    #[test]
    fn payload_writes_unique_delta_rows() {
        let state = StateDb::new();
        let cc = PayloadChaincode::new(3200);
        let a = cc.simulate(&ChaincodeInput::new(["tx1"]), &state).unwrap();
        let b = cc.simulate(&ChaincodeInput::new(["tx2"]), &state).unwrap();
        assert!(a.reads.is_empty());
        assert_ne!(a.writes[0].key, b.writes[0].key);
    }

    #[test]
    fn chaincode_names() {
        assert_eq!(IncrementChaincode.name(), "increment");
        assert_eq!(PayloadChaincode::new(1).name(), "high-throughput");
    }
}
