//! `CsvReceptor::parse_bytes` against a reference written with `str`
//! methods: generated rows over all five column types mixed with noise
//! must produce the same columns, the same `ParseOutcome`, and under
//! `MalformedPolicy::Fail` the same line number.

use datacell_basket::{Basket, CsvReceptor, MalformedPolicy, ParseOutcome, ShardedBasket};
use datacell_kernel::{Column, DataType, Value};
use proptest::prelude::*;

/// What the receptor's grammar says, spelled with `lines`/`split`/`trim`/
/// `parse`: the parsed columns, and the outcome or the failing line.
fn reference(
    schema: &[DataType],
    delimiter: char,
    policy: MalformedPolicy,
    text: &str,
) -> (Vec<Column>, Result<ParseOutcome, usize>) {
    let mut cols: Vec<Column> = schema.iter().map(|t| Column::empty(*t)).collect();
    let mut out = ParseOutcome::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(delimiter).map(str::trim).collect();
        let row: Option<Vec<Value>> = (fields.len() == schema.len())
            .then(|| {
                fields.iter().zip(schema).map(|(f, t)| {
                    Some(match t {
                        DataType::Int => Value::Int(f.parse().ok()?),
                        DataType::Oid => Value::Oid(f.parse().ok()?),
                        DataType::Float => Value::Float(f.parse().ok()?),
                        DataType::Bool => Value::Bool(f.parse().ok()?),
                        DataType::Str => Value::Str((*f).to_owned()),
                    })
                })
            })
            .and_then(Iterator::collect);
        match row {
            Some(values) => {
                cols.iter_mut().zip(values).for_each(|(c, v)| c.push(v).expect("typed"));
                out.rows += 1;
            }
            None if policy == MalformedPolicy::Fail => return (cols, Err(i + 1)),
            None => out.rejected += 1,
        }
    }
    (cols, Ok(out))
}

/// Field spellings per type: plain values, the edges of each `FromStr`,
/// padding the grammar trims, and things it must reject.
fn tokens(t: DataType) -> &'static [&'static [u8]] {
    match t {
        DataType::Int => &[
            b"0",
            b"7",
            b"-3",
            b"+7",
            b"  42",
            b"42\t",
            b"\x0b5\x0c",
            b"123456789012345678",
            b"9223372036854775807",
            b"-9223372036854775808",
            b"9223372036854775808",
            b"-9223372036854775809",
            b"0000000000000000000012",
            b"1e5",
            b"",
            b"-",
            b"+",
            b"1 2",
            b"12a",
            b"\xff1",
        ],
        DataType::Oid => &[
            b"0",
            b"42",
            b"+7",
            b"-1",
            b"-0",
            b"18446744073709551615",
            b"18446744073709551616",
            b"999999999999999999",
            b"",
            b"1.0",
            b" 9 ",
        ],
        DataType::Float => &[
            b"0.5",
            b"-1.25",
            b"1e5",
            b"inf",
            b"-inf",
            b"nan",
            b"NaN",
            b"infinity",
            b".5",
            b"5.",
            b"+3",
            b"1e400",
            b"-0",
            b"",
            b"abc",
            b"0x10",
            b" 2.5\r",
        ],
        DataType::Bool => &[b"true", b"false", b"TRUE", b"True", b" true ", b"1", b"", b"t"],
        DataType::Str => &[
            b"hello",
            b"",
            b" padded ",
            b"a b",
            b"caf\xc3\xa9",
            b"\xff\xfe",
            b"x\xc3",
            b"k1",
            b"\xe2\x82",
        ],
    }
}

const TYPES: [DataType; 5] =
    [DataType::Int, DataType::Float, DataType::Str, DataType::Bool, DataType::Oid];

/// xorshift64*: every choice of a case comes from its one generated seed.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }

    fn pick<'a, T: ?Sized>(&mut self, from: &[&'a T]) -> &'a T {
        from[self.below(from.len())]
    }
}

/// Render `rows` lines over `schema`: mostly well-formed rows, with blank
/// lines, wrong arity, padded lines and both line endings mixed in; the
/// last line may lack its terminator.
fn render(dice: &mut Dice, schema: &[DataType], delimiter: u8, rows: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..rows {
        let arity = match dice.below(8) {
            0 => schema.len() + 1,
            1 => schema.len() - 1,
            _ => schema.len(),
        };
        match dice.below(10) {
            0 => {} // blank line
            1 => bytes.extend_from_slice(dice.pick(&[&b" "[..], b"\t \t", b"\r", b"\x0b"])),
            noise => {
                if noise == 2 {
                    bytes.extend_from_slice(dice.pick(&[&b" "[..], b"\t", b"  "]));
                }
                for j in 0..arity {
                    if j > 0 {
                        bytes.push(delimiter);
                    }
                    // Past the schema's end: any type's token is a surplus field.
                    let t = schema.get(j).copied().unwrap_or(TYPES[dice.below(TYPES.len())]);
                    // Mostly the first few (valid) spellings, so batches fill.
                    let pool = tokens(t);
                    let token =
                        if dice.below(3) == 0 { dice.pick(pool) } else { pool[dice.below(2)] };
                    bytes.extend_from_slice(token);
                }
                if noise == 3 {
                    bytes.extend_from_slice(dice.pick(&[&b" "[..], b"\t", b" \t "]));
                }
            }
        }
        bytes.extend_from_slice(dice.pick(&[&b"\n"[..], b"\n", b"\r\n"]));
    }
    if dice.below(2) == 0 {
        while bytes.last().is_some_and(|b| matches!(b, b'\n' | b'\r')) {
            bytes.pop();
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_bytes_matches_the_str_reference(seed in any::<u64>()) {
        let mut dice = Dice(seed | 1);
        let schema: Vec<DataType> =
            (0..=dice.below(4)).map(|_| TYPES[dice.below(TYPES.len())]).collect();
        let delimiter = b",,;;\t"[dice.below(5)];
        let policy =
            if dice.below(4) == 0 { MalformedPolicy::Fail } else { MalformedPolicy::Skip };
        let rows = dice.below(24);
        let bytes = render(&mut dice, &schema, delimiter, rows);
        // Flush every `cap` rows, the way the network edge does.
        let cap = [1, 2, 5, usize::MAX][dice.below(4)];

        let names: Vec<String> = (0..schema.len()).map(|i| format!("c{i}")).collect();
        let named: Vec<(&str, DataType)> =
            names.iter().map(String::as_str).zip(schema.iter().copied()).collect();
        let basket = ShardedBasket::new(Basket::new("s", &named), 1);
        let mut receptor =
            CsvReceptor::new(&schema).with_delimiter(delimiter as char).with_policy(policy);
        let mut got = Ok(ParseOutcome::default());
        let mut at = 0;
        while at < bytes.len() {
            match receptor.parse_bytes(&bytes[at..], cap) {
                Ok((out, used)) => {
                    prop_assert!(used > 0, "no progress at byte {at}");
                    at += used;
                    if let Ok(total) = &mut got {
                        total.rows += out.rows;
                        total.rejected += out.rejected;
                    }
                }
                Err(e) => {
                    got = Err(e.line);
                    break;
                }
            }
            receptor.flush_into(&basket, 0).expect("flush");
        }
        receptor.flush_into(&basket, 0).expect("flush");
        let landed: Vec<Column> = basket.with(|b| {
            let w = b.snapshot();
            (0..schema.len()).map(|i| w.col(i).expect("column").clone()).collect()
        });

        let text = String::from_utf8_lossy(&bytes);
        let (want_cols, want) = reference(&schema, delimiter as char, policy, &text);
        // Debug form: NaN equals NaN and -0.0 differs from 0.0.
        prop_assert_eq!(format!("{landed:?}"), format!("{want_cols:?}"), "input {:?}", text);
        prop_assert_eq!(got, want, "input {:?}", text);
        if let Ok(out) = want {
            prop_assert_eq!((receptor.rows_ok(), receptor.rows_skipped()), (out.rows, out.rejected));
        }
    }
}
