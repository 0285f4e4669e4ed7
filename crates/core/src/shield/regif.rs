//! The Shield register interface (§5.1).
//!
//! "The register interface provides authenticated encryption using the
//! Data Owner's Data Encryption Key. The host program memory-maps
//! accelerator-accessible registers and reads/writes encrypted data and
//! commands via pointers." The host side only ever sees sealed blobs;
//! the accelerator side sees plaintext registers.
//!
//! With [`RegisterInterfaceConfig::hide_addresses`] the Shield
//! additionally hides *which* register is accessed: the host funnels
//! sealed `(index, value)` packets through a single common address
//! ("the Shield offers an additional option of encrypting both addresses
//! and data via a common address for all registers").

use shef_crypto::authenc::{AuthEncKey, Sealed};
use shef_crypto::wire::{Reader, Writer};

use super::config::RegisterInterfaceConfig;
use crate::ShefError;

fn reg_ad(index: usize) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str("shef.regif.v1");
    w.put_u32(index as u32);
    w.finish()
}

fn common_ad() -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str("shef.regif.v1.common");
    w.finish()
}

/// The register interface runtime.
pub struct RegisterInterface {
    cfg: RegisterInterfaceConfig,
    key: Option<AuthEncKey>,
    regs: Vec<u64>,
}

impl core::fmt::Debug for RegisterInterface {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RegisterInterface")
            .field("num_registers", &self.cfg.num_registers)
            .field("hide_addresses", &self.cfg.hide_addresses)
            .field("keyed", &self.key.is_some())
            .finish()
    }
}

impl RegisterInterface {
    /// Creates an interface with no key (pre-provisioning).
    #[must_use]
    pub fn new(cfg: RegisterInterfaceConfig) -> Self {
        let regs = vec![0u64; cfg.num_registers];
        RegisterInterface {
            cfg,
            key: None,
            regs,
        }
    }

    /// Installs the register key derived from the Data Encryption Key.
    pub fn set_key(&mut self, key: AuthEncKey) {
        self.key = Some(key);
    }

    /// Erases the key (session end).
    pub fn zeroize(&mut self) {
        self.key = None;
    }

    fn key(&self) -> Result<&AuthEncKey, ShefError> {
        self.key
            .as_ref()
            .ok_or_else(|| ShefError::KeyNotProvisioned("register interface key".into()))
    }

    fn key_mut(&mut self) -> Result<&mut AuthEncKey, ShefError> {
        self.key
            .as_mut()
            .ok_or_else(|| ShefError::KeyNotProvisioned("register interface key".into()))
    }

    fn check_index(&self, index: usize) -> Result<(), ShefError> {
        if index >= self.cfg.num_registers {
            return Err(ShefError::Malformed(format!(
                "register index {index} out of range (file has {})",
                self.cfg.num_registers
            )));
        }
        Ok(())
    }

    /// Host writes a sealed 8-byte value to register `index`.
    ///
    /// # Errors
    ///
    /// Fails with [`ShefError::Crypto`] on tag mismatch, or
    /// [`ShefError::ProtocolViolation`] if address hiding is enabled
    /// (use [`RegisterInterface::host_write_hidden`]).
    pub fn host_write(&mut self, index: usize, sealed: &Sealed) -> Result<(), ShefError> {
        if self.cfg.hide_addresses {
            return Err(ShefError::ProtocolViolation(
                "address hiding enabled: use the common register".into(),
            ));
        }
        self.check_index(index)?;
        let plain = self.key()?.open(sealed, &reg_ad(index))?;
        let bytes: [u8; 8] = plain
            .try_into()
            .map_err(|_| ShefError::Malformed("register payload must be 8 bytes".into()))?;
        self.regs[index] = u64::from_le_bytes(bytes);
        Ok(())
    }

    /// Host reads register `index` as a sealed blob.
    ///
    /// # Errors
    ///
    /// Fails if unkeyed or if address hiding is enabled.
    pub fn host_read(&mut self, index: usize) -> Result<Sealed, ShefError> {
        if self.cfg.hide_addresses {
            return Err(ShefError::ProtocolViolation(
                "address hiding enabled: use the common register".into(),
            ));
        }
        self.check_index(index)?;
        let value = self.regs[index].to_le_bytes();
        let ad = reg_ad(index);
        Ok(self.key_mut()?.seal(&value, &ad))
    }

    /// Host writes through the common register: the sealed payload
    /// carries `(index, value)` so the bus address reveals nothing.
    ///
    /// # Errors
    ///
    /// Fails with [`ShefError::Crypto`] on tag mismatch.
    pub fn host_write_hidden(&mut self, sealed: &Sealed) -> Result<(), ShefError> {
        let plain = self.key()?.open(sealed, &common_ad())?;
        let mut r = Reader::new(&plain);
        let index = r.get_u32()? as usize;
        let value = r.get_u64()?;
        r.finish()?;
        self.check_index(index)?;
        self.regs[index] = value;
        Ok(())
    }

    /// Host reads through the common register: sends a sealed index,
    /// receives a sealed `(index, value)`.
    ///
    /// # Errors
    ///
    /// Fails with [`ShefError::Crypto`] on tag mismatch.
    pub fn host_read_hidden(&mut self, sealed_index: &Sealed) -> Result<Sealed, ShefError> {
        let plain = self.key()?.open(sealed_index, &common_ad())?;
        let mut r = Reader::new(&plain);
        let index = r.get_u32()? as usize;
        r.finish()?;
        self.check_index(index)?;
        let mut w = Writer::new();
        w.put_u32(index as u32);
        w.put_u64(self.regs[index]);
        let payload = w.finish();
        let ad = common_ad();
        Ok(self.key_mut()?.seal(&payload, &ad))
    }

    /// Accelerator-side plaintext read.
    #[must_use]
    pub fn accel_read(&self, index: usize) -> u64 {
        self.regs.get(index).copied().unwrap_or(0)
    }

    /// Accelerator-side plaintext write.
    pub fn accel_write(&mut self, index: usize, value: u64) {
        if let Some(slot) = self.regs.get_mut(index) {
            *slot = value;
        }
    }

    /// Helpers for the host side of the channel (the Data Owner's
    /// client): seals a value for `host_write`.
    ///
    /// # Errors
    ///
    /// Fails if the interface is unkeyed.
    pub fn client_seal_value(
        key: &mut AuthEncKey,
        index: usize,
        value: u64,
    ) -> Result<Sealed, ShefError> {
        Ok(key.seal(&value.to_le_bytes(), &reg_ad(index)))
    }

    /// Client-side open of a `host_read` response.
    ///
    /// # Errors
    ///
    /// Fails with [`ShefError::Crypto`] on tag mismatch.
    pub fn client_open_value(
        key: &AuthEncKey,
        index: usize,
        sealed: &Sealed,
    ) -> Result<u64, ShefError> {
        let plain = key.open(sealed, &reg_ad(index))?;
        let bytes: [u8; 8] = plain
            .try_into()
            .map_err(|_| ShefError::Malformed("register payload must be 8 bytes".into()))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Client-side seal of a hidden `(index, value)` write packet.
    #[must_use]
    pub fn client_seal_hidden_write(key: &mut AuthEncKey, index: usize, value: u64) -> Sealed {
        let mut w = Writer::new();
        w.put_u32(index as u32);
        w.put_u64(value);
        key.seal(&w.finish(), &common_ad())
    }

    /// Client-side seal of a hidden read request.
    #[must_use]
    pub fn client_seal_hidden_read(key: &mut AuthEncKey, index: usize) -> Sealed {
        let mut w = Writer::new();
        w.put_u32(index as u32);
        key.seal(&w.finish(), &common_ad())
    }

    /// Client-side open of a hidden read response.
    ///
    /// # Errors
    ///
    /// Fails with [`ShefError::Crypto`] on tag mismatch.
    pub fn client_open_hidden(
        key: &AuthEncKey,
        sealed: &Sealed,
    ) -> Result<(usize, u64), ShefError> {
        let plain = key.open(sealed, &common_ad())?;
        let mut r = Reader::new(&plain);
        let index = r.get_u32()? as usize;
        let value = r.get_u64()?;
        r.finish()?;
        Ok((index, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shef_crypto::authenc::MacAlgorithm;

    fn keyed_regif(hide: bool) -> (RegisterInterface, AuthEncKey) {
        let mut regif = RegisterInterface::new(RegisterInterfaceConfig {
            num_registers: 8,
            hide_addresses: hide,
        });
        let key = AuthEncKey::from_bytes([0x21u8; 32], MacAlgorithm::HmacSha256);
        regif.set_key(key.clone());
        (regif, key)
    }

    #[test]
    fn host_write_then_accel_read() {
        let (mut regif, mut key) = keyed_regif(false);
        let sealed = RegisterInterface::client_seal_value(&mut key, 3, 0xdead_beef).unwrap();
        regif.host_write(3, &sealed).unwrap();
        assert_eq!(regif.accel_read(3), 0xdead_beef);
    }

    #[test]
    fn accel_write_then_host_read() {
        let (mut regif, key) = keyed_regif(false);
        regif.accel_write(5, 42);
        let sealed = regif.host_read(5).unwrap();
        assert_eq!(
            RegisterInterface::client_open_value(&key, 5, &sealed).unwrap(),
            42
        );
    }

    #[test]
    fn tampered_register_write_rejected() {
        let (mut regif, mut key) = keyed_regif(false);
        let mut sealed = RegisterInterface::client_seal_value(&mut key, 2, 7).unwrap();
        sealed.ciphertext[0] ^= 1;
        assert!(regif.host_write(2, &sealed).is_err());
        assert_eq!(regif.accel_read(2), 0, "tampered write must not land");
    }

    #[test]
    fn sealed_value_bound_to_register_index() {
        // A packet sealed for register 1 replayed at register 2 must fail
        // (address metadata binding).
        let (mut regif, mut key) = keyed_regif(false);
        let sealed = RegisterInterface::client_seal_value(&mut key, 1, 99).unwrap();
        assert!(regif.host_write(2, &sealed).is_err());
    }

    #[test]
    fn unkeyed_interface_refuses() {
        let mut regif = RegisterInterface::new(RegisterInterfaceConfig::default());
        let mut key = AuthEncKey::from_bytes([1u8; 32], MacAlgorithm::HmacSha256);
        let sealed = RegisterInterface::client_seal_value(&mut key, 0, 1).unwrap();
        assert!(matches!(
            regif.host_write(0, &sealed),
            Err(ShefError::KeyNotProvisioned(_))
        ));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let (mut regif, mut key) = keyed_regif(false);
        let sealed = RegisterInterface::client_seal_value(&mut key, 20, 1).unwrap();
        assert!(regif.host_write(20, &sealed).is_err());
    }

    #[test]
    fn hidden_mode_round_trip() {
        let (mut regif, mut key) = keyed_regif(true);
        let w = RegisterInterface::client_seal_hidden_write(&mut key, 6, 123);
        regif.host_write_hidden(&w).unwrap();
        assert_eq!(regif.accel_read(6), 123);
        let rq = RegisterInterface::client_seal_hidden_read(&mut key, 6);
        let resp = regif.host_read_hidden(&rq).unwrap();
        assert_eq!(
            RegisterInterface::client_open_hidden(&key, &resp).unwrap(),
            (6, 123)
        );
    }

    #[test]
    fn hidden_mode_blocks_plain_path() {
        let (mut regif, mut key) = keyed_regif(true);
        let sealed = RegisterInterface::client_seal_value(&mut key, 0, 1).unwrap();
        assert!(matches!(
            regif.host_write(0, &sealed),
            Err(ShefError::ProtocolViolation(_))
        ));
        assert!(matches!(
            regif.host_read(0),
            Err(ShefError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn zeroize_drops_key() {
        let (mut regif, mut key) = keyed_regif(false);
        regif.zeroize();
        let sealed = RegisterInterface::client_seal_value(&mut key, 0, 1).unwrap();
        assert!(regif.host_write(0, &sealed).is_err());
    }
}
