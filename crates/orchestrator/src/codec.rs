//! The one codec every document of this crate goes through.
//!
//! A type's JSON shape is one decision in one place. Leaf types implement
//! [`Codec`] by hand below; a record's encoder *and* decoder come from one
//! `field => "key"` table ([`record!`]); a unit enum's spellings from one
//! `(variant, "spelling")` table read both ways ([`spellings!`]). Tagged
//! enums keep one hand-written `match` per direction on their tag, and
//! read and write their fields through the same codec.
//!
//! Decoding is total: a value of the wrong type, a number out of its
//! type's range, or a missing key is a [`WireError`] naming the field,
//! never a panic.

use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::wire::{malformed, WireError};
use std::net::Ipv4Addr;
use std::time::Duration;

/// A value with one JSON spelling. `C` is what encoder and decoder share
/// besides the value: nothing for every document but an element summary,
/// whose records name terms by their index in the summary's term table.
pub(crate) trait Codec<C = ()>: Sized {
    /// The value's JSON.
    fn encode(&self, cx: &mut C) -> Json;
    /// Read a value back; anything [`Codec::encode`] does not write is
    /// refused.
    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError>;
}

/// A field's codec when it is not its type's own: `V` spells a `T` in
/// context `C` (bytes as hex, a property by its name).
pub(crate) trait Via<T, C> {
    fn encode(value: &T, cx: &mut C) -> Json;
    fn decode(json: &Json, cx: &mut C) -> Result<T, WireError>;
}

/// The type's own codec.
pub(crate) struct Plain;

impl<T: Codec<C>, C> Via<T, C> for Plain {
    fn encode(value: &T, cx: &mut C) -> Json {
        value.encode(cx)
    }
    fn decode(json: &Json, cx: &mut C) -> Result<T, WireError> {
        T::decode(json, cx)
    }
}

/// Encode a context-free value.
pub(crate) fn to_json<T: Codec>(value: &T) -> Json {
    value.encode(&mut ())
}

/// Decode a context-free value.
pub(crate) fn from_json<T: Codec>(json: &Json) -> Result<T, WireError> {
    T::decode(json, &mut ())
}

/// The member `key` of the object `json`.
pub(crate) fn member<'a>(json: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    json.get(key)
        .ok_or_else(|| malformed(format!("missing field '{key}'")))
}

/// The string member `key` of `json`, borrowed (a tag, or text parsed
/// further).
pub(crate) fn text<'a>(json: &'a Json, key: &str) -> Result<&'a str, WireError> {
    member(json, key)?
        .as_str()
        .ok_or_else(|| malformed(format!("field '{key}' is not a string")))
}

/// Read the member `key` of `json` through `V`; an error names the key.
pub(crate) fn field_via<V: Via<T, C>, T, C>(
    json: &Json,
    key: &str,
    cx: &mut C,
) -> Result<T, WireError> {
    V::decode(member(json, key)?, cx).map_err(|e| e.within(key))
}

/// Read the member `key` of `json` in context `cx`.
pub(crate) fn field_in<T: Codec<C>, C>(json: &Json, key: &str, cx: &mut C) -> Result<T, WireError> {
    field_via::<Plain, T, C>(json, key, cx)
}

/// Read the member `key` of a context-free document.
pub(crate) fn field<T: Codec>(json: &Json, key: &str) -> Result<T, WireError> {
    field_in(json, key, &mut ())
}

/// The object `body` with `value` under `key`: a tagged enum's variant
/// (`"kind"`, `"t"`, `"k"`), a document's version, or what an
/// operational document adds to its deterministic one.
pub(crate) fn with_member(key: &'static str, value: Json, mut body: Json) -> Json {
    if let Json::Obj(map) = &mut body {
        map.insert(key.to_string(), value);
    }
    body
}

/// A document's version stamp: `value` under `key`. A document stamped
/// otherwise is refused.
pub(crate) struct Version {
    /// `"schema"` or `"format"`.
    pub key: &'static str,
    /// The one version this build reads and writes.
    pub value: u64,
    /// What the document is, for the refusal.
    pub what: &'static str,
}

impl Version {
    /// `body` with this stamp.
    pub(crate) fn stamp(&self, body: Json) -> Json {
        with_member(self.key, Json::int(self.value), body)
    }

    /// Refuse `json` unless it carries this stamp.
    pub(crate) fn check(&self, json: &Json) -> Result<(), WireError> {
        let (key, expected) = (self.key, self.value);
        let version: u64 = field(json, key)?;
        if version != expected {
            return Err(malformed(format!(
                "unsupported {} {key} {version} (this build reads {key} {expected})",
                self.what
            )));
        }
        Ok(())
    }
}

/// The record `Type`'s codec from one table. Each field of `Type` is named
/// once, so a field added to the type is a compile error here until its
/// wire form is decided:
///
/// * `field => "key"` — the member `key`, in the field type's codec;
/// * `field => "key" as V` — the member `key`, spelled by the adapter `V`;
/// * `field => ..` — the field's own record, flattened into this object;
/// * `field => _` — not on the wire; decodes to the type's default.
///
/// `record!(Type in C { .. })` implements the codec for context `C` only;
/// without `in`, for every context. Fields are encoded in table order —
/// which matters only where encoding has side effects (an element
/// summary's term numbering).
macro_rules! record {
    (@impl [$($g:ident)?] $cx:ty, $ty:ident {
        $($field:ident => $spec:tt $(as $via:ty)?),* $(,)?
    }) => {
        impl<$($g)?> $crate::codec::Codec<$cx> for $ty {
            fn encode(&self, cx: &mut $cx) -> $crate::json::Json {
                let mut map = ::std::collections::BTreeMap::new();
                $($crate::codec::record!(@put map, cx, &self.$field, $spec, $($via)?);)*
                $crate::json::Json::Obj(map)
            }
            fn decode(
                json: &$crate::json::Json,
                cx: &mut $cx,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                Ok(Self {
                    $($field: $crate::codec::record!(@take json, cx, $spec, $($via)?),)*
                })
            }
        }
    };
    (@via) => { $crate::codec::Plain };
    (@via $via:ty) => { $via };
    (@put $map:ident, $cx:ident, $value:expr, _, $($via:ty)?) => {};
    (@put $map:ident, $cx:ident, $value:expr, .., $($via:ty)?) => {
        if let $crate::json::Json::Obj(inner) =
            <$crate::codec::record!(@via $($via)?) as $crate::codec::Via<_, _>>::encode($value, $cx)
        {
            $map.extend(inner);
        }
    };
    (@put $map:ident, $cx:ident, $value:expr, $key:literal, $($via:ty)?) => {
        $map.insert(
            $key.to_string(),
            <$crate::codec::record!(@via $($via)?) as $crate::codec::Via<_, _>>::encode($value, $cx),
        );
    };
    (@take $json:ident, $cx:ident, _,) => { ::std::default::Default::default() };
    (@take $json:ident, $cx:ident, .., $($via:ty)?) => {
        <$crate::codec::record!(@via $($via)?) as $crate::codec::Via<_, _>>::decode($json, $cx)?
    };
    (@take $json:ident, $cx:ident, $key:literal, $($via:ty)?) => {
        $crate::codec::field_via::<$crate::codec::record!(@via $($via)?), _, _>($json, $key, $cx)?
    };
    ($ty:ident { $($body:tt)* }) => {
        $crate::codec::record!(@impl [C] C, $ty { $($body)* });
    };
    ($ty:ident in $cx:ty { $($body:tt)* }) => {
        $crate::codec::record!(@impl [] $cx, $ty { $($body)* });
    };
}
pub(crate) use record;

/// A unit enum's one spelling table, read both ways: the codec (a JSON
/// string) and [`Spelled::spelling`] for text that embeds the spelling.
macro_rules! spellings {
    ($enum:ident { $($variant:ident => $name:literal),* $(,)? }) => {
        impl $crate::codec::Spelled for $enum {
            fn spelling(&self) -> &'static str {
                match self {
                    $($enum::$variant => $name,)*
                }
            }
        }
        impl<C> $crate::codec::Codec<C> for $enum {
            fn encode(&self, _: &mut C) -> $crate::json::Json {
                $crate::json::Json::str($crate::codec::Spelled::spelling(self))
            }
            fn decode(
                json: &$crate::json::Json,
                _: &mut C,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                match json.as_str() {
                    $(Some($name) => Ok($enum::$variant),)*
                    _ => Err($crate::wire::malformed(format!(
                        "{json:?} is no {} spelling",
                        stringify!($enum)
                    ))),
                }
            }
        }
    };
}
pub(crate) use spellings;

/// A unit enum's wire spelling.
pub(crate) trait Spelled {
    fn spelling(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Leaf types
// ---------------------------------------------------------------------------

impl<C> Codec<C> for u64 {
    fn encode(&self, _: &mut C) -> Json {
        Json::int(*self)
    }
    fn decode(json: &Json, _: &mut C) -> Result<Self, WireError> {
        json.as_u64()
            .ok_or_else(|| malformed(format!("{json:?} is not an unsigned integer")))
    }
}

/// Unsigned integers narrower than `u64`: range-checked on decode.
macro_rules! narrowed {
    ($($ty:ty),*) => {$(
        impl<C> Codec<C> for $ty {
            fn encode(&self, _: &mut C) -> Json {
                Json::int(*self as u64)
            }
            fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
                let wide = u64::decode(json, cx)?;
                <$ty>::try_from(wide)
                    .map_err(|_| malformed(format!("{wide} exceeds {}", stringify!($ty))))
            }
        }
    )*};
}
narrowed!(u8, u32, usize);

impl<C> Codec<C> for i64 {
    fn encode(&self, _: &mut C) -> Json {
        Json::int(*self)
    }
    fn decode(json: &Json, _: &mut C) -> Result<Self, WireError> {
        json.as_i64()
            .ok_or_else(|| malformed(format!("{json:?} is not an i64")))
    }
}

impl<C> Codec<C> for bool {
    fn encode(&self, _: &mut C) -> Json {
        Json::Bool(*self)
    }
    fn decode(json: &Json, _: &mut C) -> Result<Self, WireError> {
        json.as_bool()
            .ok_or_else(|| malformed(format!("{json:?} is not a boolean")))
    }
}

impl<C> Codec<C> for String {
    fn encode(&self, _: &mut C) -> Json {
        Json::str(self)
    }
    fn decode(json: &Json, _: &mut C) -> Result<Self, WireError> {
        json.as_str()
            .map(str::to_string)
            .ok_or_else(|| malformed(format!("{json:?} is not a string")))
    }
}

impl<T: Codec<C>, C> Codec<C> for Vec<T> {
    fn encode(&self, cx: &mut C) -> Json {
        Json::Arr(self.iter().map(|item| item.encode(cx)).collect())
    }
    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        json.as_arr()
            .ok_or_else(|| malformed("expected an array"))?
            .iter()
            .map(|item| T::decode(item, cx))
            .collect()
    }
}

/// `None` is `null`.
impl<T: Codec<C>, C> Codec<C> for Option<T> {
    fn encode(&self, cx: &mut C) -> Json {
        self.as_ref().map_or(Json::Null, |value| value.encode(cx))
    }
    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        match json {
            Json::Null => Ok(None),
            json => T::decode(json, cx).map(Some),
        }
    }
}

/// A pair is a two-element array.
impl<A: Codec<C>, B: Codec<C>, C> Codec<C> for (A, B) {
    fn encode(&self, cx: &mut C) -> Json {
        Json::Arr(vec![self.0.encode(cx), self.1.encode(cx)])
    }
    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        match json.as_arr() {
            Some([a, b]) => Ok((A::decode(a, cx)?, B::decode(b, cx)?)),
            _ => Err(malformed("expected a pair")),
        }
    }
}

/// An embedded document, kept as it is.
impl<C> Codec<C> for Json {
    fn encode(&self, _: &mut C) -> Json {
        self.clone()
    }
    fn decode(json: &Json, _: &mut C) -> Result<Self, WireError> {
        Ok(json.clone())
    }
}

/// 32 lowercase hex digits.
impl<C> Codec<C> for Fingerprint {
    fn encode(&self, _: &mut C) -> Json {
        Json::str(self.to_string())
    }
    fn decode(json: &Json, _: &mut C) -> Result<Self, WireError> {
        json.as_str()
            .and_then(Fingerprint::parse)
            .ok_or_else(|| malformed(format!("bad fingerprint {json:?}")))
    }
}

/// Dotted-quad text.
impl<C> Codec<C> for Ipv4Addr {
    fn encode(&self, _: &mut C) -> Json {
        Json::str(self.to_string())
    }
    fn decode(json: &Json, _: &mut C) -> Result<Self, WireError> {
        json.as_str()
            .and_then(|text| text.parse().ok())
            .ok_or_else(|| malformed(format!("{json:?} is not an IPv4 address")))
    }
}

/// Whole microseconds, saturating at `u64::MAX`.
impl<C> Codec<C> for Duration {
    fn encode(&self, _: &mut C) -> Json {
        Json::int(u64::try_from(self.as_micros()).unwrap_or(u64::MAX))
    }
    fn decode(json: &Json, cx: &mut C) -> Result<Self, WireError> {
        u64::decode(json, cx).map(Duration::from_micros)
    }
}

/// Bytes as lowercase hex text (two digits a byte); `None` is `null`.
pub(crate) struct Hex;

impl<C> Via<Vec<u8>, C> for Hex {
    fn encode(bytes: &Vec<u8>, _: &mut C) -> Json {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(bytes.len() * 2);
        for &b in bytes {
            out.push(DIGITS[usize::from(b >> 4)] as char);
            out.push(DIGITS[usize::from(b & 0xf)] as char);
        }
        Json::Str(out)
    }
    fn decode(json: &Json, _: &mut C) -> Result<Vec<u8>, WireError> {
        let text = json
            .as_str()
            .ok_or_else(|| malformed(format!("{json:?} is not a hex string")))?;
        // Work on bytes: slicing the text at fixed offsets would panic on
        // a multi-byte character, and `from_str_radix` would accept a sign
        // (`"+f"`).
        if !text.len().is_multiple_of(2) {
            return Err(malformed("odd-length hex string"));
        }
        let digit = |b: u8| {
            (b as char)
                .to_digit(16)
                .ok_or_else(|| malformed("bad hex byte"))
        };
        text.as_bytes()
            .chunks_exact(2)
            .map(|pair| Ok((digit(pair[0])? * 16 + digit(pair[1])?) as u8))
            .collect()
    }
}

impl<C> Via<Option<Vec<u8>>, C> for Hex {
    fn encode(bytes: &Option<Vec<u8>>, cx: &mut C) -> Json {
        bytes
            .as_ref()
            .map_or(Json::Null, |bytes| Hex::encode(bytes, cx))
    }
    fn decode(json: &Json, cx: &mut C) -> Result<Option<Vec<u8>>, WireError> {
        match json {
            Json::Null => Ok(None),
            json => <Hex as Via<Vec<u8>, C>>::decode(json, cx).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_round_trip_and_refuse_other_types() {
        let text = |json: Json| json.to_text();
        assert_eq!(text(to_json(&u64::MAX)), u64::MAX.to_string());
        assert_eq!(from_json::<u64>(&Json::int(u64::MAX)).unwrap(), u64::MAX);
        assert!(from_json::<u32>(&Json::int(1u64 << 32)).is_err());
        assert!(from_json::<u8>(&Json::int(256)).is_err());
        assert!(from_json::<u64>(&Json::int(-1)).is_err());
        assert!(from_json::<bool>(&Json::str("true")).is_err());
        assert_eq!(from_json::<Option<u8>>(&Json::Null).unwrap(), None);
        assert_eq!(
            from_json::<(i64, i64)>(&Json::Arr(vec![Json::int(-3), Json::int(4)])).unwrap(),
            (-3, 4)
        );
        assert!(from_json::<(i64, i64)>(&Json::Arr(vec![Json::int(1)])).is_err());
        let long = Duration::from_secs(u64::MAX);
        assert_eq!(to_json(&long), Json::int(u64::MAX));
        assert!(from_json::<Fingerprint>(&Json::str("+".repeat(32))).is_err());
    }

    #[test]
    fn a_record_error_names_its_field() {
        struct Pair {
            left: u32,
            right: bool,
            skipped: u8,
        }
        record!(Pair {
            left => "l",
            right => "r",
            skipped => _,
        });
        let json = Json::obj([("l", Json::int(1u64 << 40)), ("r", Json::Bool(true))]);
        let error = from_json::<Pair>(&json).err().unwrap().to_string();
        assert!(error.contains("field 'l'"), "{error}");
        let pair = Pair {
            left: 7,
            right: false,
            skipped: 9,
        };
        let text = to_json(&pair).to_text();
        assert_eq!(text, r#"{"l":7,"r":false}"#);
        let back: Pair = from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!((back.left, back.right, back.skipped), (7, false, 0));
    }
}
