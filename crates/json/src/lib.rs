//! Hand-rolled JSON for the KVEC reproduction.
//!
//! The workspace builds with **zero external dependencies** (see DESIGN.md
//! "Dependencies"), so the serialization previously delegated to
//! `serde`/`serde_json` lives here: a [`Json`] value model, a strict
//! recursive-descent [parser](Json::parse), a [writer](Json::dump), and the
//! [`ToJson`]/[`FromJson`] traits the tensor/data/nn crates implement for
//! their checkpoint and dataset formats.
//!
//! The wire format matches what `serde_json` produced for the same structs
//! (objects with field names, tuples as fixed-length arrays, newtypes as
//! their inner value, non-finite floats as `null`), so artifacts written
//! before the migration still load.

mod parse;
mod value;
mod write;

pub use parse::{line_col, JsonError};
pub use value::Json;

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Fallible conversion out of a [`Json`] value.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, failing with a descriptive error on shape or
    /// type mismatches.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

/// Encodes a value as compact JSON text.
pub fn encode<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().dump()
}

/// Parses JSON text and converts it into `T`.
pub fn decode<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(s)?)
}

// ---------------------------------------------------------------------------
// Blanket implementations for the primitive shapes the repo serializes.
// ---------------------------------------------------------------------------

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }

        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let n = match j {
                    Json::Int(n) => *n,
                    other => {
                        return Err(JsonError::new(format!(
                            "expected integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n).map_err(|_| {
                    JsonError::new(format!(
                        "integer {n} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Float(*self as f64)
            }
        }

        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                match j {
                    Json::Float(f) => Ok(*f as $t),
                    Json::Int(n) => Ok(*n as $t),
                    other => Err(JsonError::new(format!(
                        "expected number, got {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    T::from_json(item).map_err(|e| JsonError::new(format!("array index {i}: {e}")))
                })
                .collect(),
            other => Err(JsonError::new(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

// Tuples serialize as fixed-length arrays, matching serde's convention so
// pre-migration artifacts (checkpoints store `[name, tensor]` pairs,
// tangled sequences store `[key, label]` pairs) stay loadable.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let items = j.as_arr()?;
        if items.len() != 2 {
            return Err(JsonError::new(format!(
                "expected 2-element array, got {} elements",
                items.len()
            )));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let items = j.as_arr()?;
        if items.len() != 3 {
            return Err(JsonError::new(format!(
                "expected 3-element array, got {} elements",
                items.len()
            )));
        }
        Ok((
            A::from_json(&items[0])?,
            B::from_json(&items[1])?,
            C::from_json(&items[2])?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trips() {
        assert_eq!(decode::<u64>(&encode(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(decode::<i64>(&encode(&i64::MIN)).unwrap(), i64::MIN);
        assert!(decode::<bool>(&encode(&true)).unwrap());
        assert_eq!(decode::<f32>(&encode(&0.1f32)).unwrap(), 0.1f32);
        assert_eq!(decode::<f64>(&encode(&1e300)).unwrap(), 1e300);
        assert_eq!(decode::<String>(&encode("hé\"llo\n")).unwrap(), "hé\"llo\n");
    }

    #[test]
    fn container_round_trips() {
        let v: Vec<(String, u32)> = vec![("a".into(), 1), ("b".into(), 2)];
        assert_eq!(decode::<Vec<(String, u32)>>(&encode(&v)).unwrap(), v);
        let o: Option<f32> = None;
        assert_eq!(encode(&o), "null");
        assert_eq!(decode::<Option<f32>>("null").unwrap(), None);
        assert_eq!(decode::<Option<f32>>("2.5").unwrap(), Some(2.5));
    }

    #[test]
    fn integer_range_checks() {
        assert!(decode::<u8>("256").is_err());
        assert!(decode::<u64>("-1").is_err());
        assert_eq!(decode::<u8>("255").unwrap(), 255);
    }

    #[test]
    fn type_mismatch_errors_name_the_kinds() {
        let err = decode::<bool>("3").unwrap_err().to_string();
        assert!(err.contains("expected bool"), "{err}");
        let err = decode::<Vec<u32>>("{}").unwrap_err().to_string();
        assert!(err.contains("expected array"), "{err}");
    }

    #[test]
    fn float_accepts_integer_literals() {
        assert_eq!(decode::<f32>("3").unwrap(), 3.0);
    }
}
