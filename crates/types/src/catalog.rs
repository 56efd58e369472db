//! Catalog of base stream schemas.

use std::collections::HashMap;

use std::sync::Arc;

use crate::{DataType, Field, Schema, Temporality, TypeError, TypeResult, Udaf, UdafRegistry};

/// Registry of base (source) stream schemas — and user-defined aggregate
/// functions — known to the system.
///
/// In a Gigascope deployment this corresponds to the protocol schema file
/// describing the fields the low-level capture layer exposes, plus the
/// UDAF library linked into the instance. The catalog pre-registers the
/// `TCP` and `PKT` schemas used throughout the paper.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    streams: HashMap<String, Schema>,
    udafs: UdafRegistry,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates a catalog pre-loaded with the paper's network schemas:
    ///
    /// - `TCP(time increasing, timestamp increasing, srcIP, destIP,
    ///   srcPort, destPort, protocol, flags, len)` — the packet stream all
    ///   Section 3–6 queries read;
    /// - `PKT(time increasing, srcIP, destIP, len)` — the simplified
    ///   stream of the Section 3.1 examples.
    pub fn with_network_schemas() -> Self {
        let mut c = Catalog::new();
        c.register(tcp_schema()).expect("static schema");
        c.register(pkt_schema()).expect("static schema");
        c
    }

    /// Registers a schema under its own name.
    pub fn register(&mut self, schema: Schema) -> TypeResult<()> {
        let key = schema.name().to_ascii_lowercase();
        if self.streams.contains_key(&key) {
            return Err(TypeError::DuplicateStream {
                stream: schema.name().to_string(),
            });
        }
        self.streams.insert(key, schema);
        Ok(())
    }

    /// Looks up a stream schema by case-insensitive name.
    pub fn get(&self, name: &str) -> Option<&Schema> {
        self.streams.get(&name.to_ascii_lowercase())
    }

    /// Looks up a stream schema, reporting a typed error when absent.
    pub fn resolve(&self, name: &str) -> TypeResult<&Schema> {
        self.get(name).ok_or_else(|| TypeError::UnknownStream {
            stream: name.to_string(),
        })
    }

    /// Whether a stream with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.streams.contains_key(&name.to_ascii_lowercase())
    }

    /// The registered streams as GSQL `STREAM name(field type
    /// [increasing|decreasing], ...);` statements, one a line, sorted by
    /// name: the script that registers them again. UDAFs are code, not
    /// text, and are not part of it.
    pub fn stream_defs(&self) -> String {
        let mut keys: Vec<&String> = self.streams.keys().collect();
        keys.sort();
        keys.iter()
            .map(|k| format!("STREAM {};\n", self.streams[*k]))
            .collect()
    }

    /// Registers a user-defined aggregate function; GSQL queries may
    /// then call it by name, and the optimizer will apply the partial-
    /// aggregation transformation when [`Udaf::splittable`] holds.
    pub fn register_udaf(&mut self, udaf: Arc<dyn Udaf>) {
        self.udafs.register(udaf);
    }

    /// The UDAF registry.
    pub fn udafs(&self) -> &UdafRegistry {
        &self.udafs
    }
}

/// The `TCP` packet stream schema used by the paper's example queries.
pub fn tcp_schema() -> Schema {
    Schema::new(
        "TCP",
        vec![
            Field::temporal("time", DataType::UInt, Temporality::Increasing),
            Field::temporal("timestamp", DataType::UInt, Temporality::Increasing),
            Field::new("srcIP", DataType::UInt),
            Field::new("destIP", DataType::UInt),
            Field::new("srcPort", DataType::UInt),
            Field::new("destPort", DataType::UInt),
            Field::new("protocol", DataType::UInt),
            Field::new("flags", DataType::UInt),
            Field::new("len", DataType::UInt),
        ],
    )
    .expect("TCP schema is well-formed")
}

/// The simplified `PKT(time increasing, srcIP, destIP, len)` schema from
/// Section 3.1 of the paper.
pub fn pkt_schema() -> Schema {
    Schema::new(
        "PKT",
        vec![
            Field::temporal("time", DataType::UInt, Temporality::Increasing),
            Field::new("srcIP", DataType::UInt),
            Field::new("destIP", DataType::UInt),
            Field::new("len", DataType::UInt),
        ],
    )
    .expect("PKT schema is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_schemas_preloaded() {
        let c = Catalog::with_network_schemas();
        assert!(c.contains("TCP"));
        assert!(c.contains("tcp"));
        assert!(c.contains("PKT"));
        assert_eq!(c.get("TCP").unwrap().arity(), 9);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut c = Catalog::with_network_schemas();
        let err = c.register(tcp_schema()).unwrap_err();
        assert!(matches!(err, TypeError::DuplicateStream { .. }));
    }

    #[test]
    fn resolve_unknown_stream_errors() {
        let c = Catalog::new();
        assert!(matches!(
            c.resolve("UDP").unwrap_err(),
            TypeError::UnknownStream { .. }
        ));
    }

    #[test]
    fn tcp_schema_temporal_attrs() {
        let s = tcp_schema();
        assert_eq!(s.temporal_indices(), vec![0, 1]);
        assert_eq!(s.field("flags").unwrap().data_type(), DataType::UInt);
    }
}
