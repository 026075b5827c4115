//! The `{0, 1, ⊥}` broadcast alphabet.

/// One broadcast character: a bit or the silent character `⊥`.
///
/// The paper describes a silent vertex as "sending the character ⊥"
/// (Section 3), making the per-round alphabet ternary; labels of edges
/// in the crossing argument are strings over exactly this alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Symbol {
    /// The bit 0.
    Zero,
    /// The bit 1.
    One,
    /// Silence (`⊥`).
    #[default]
    Silent,
}

impl Symbol {
    /// Converts a bit into a symbol.
    pub fn bit(b: bool) -> Symbol {
        if b {
            Symbol::One
        } else {
            Symbol::Zero
        }
    }

    /// A compact character for transcripts: `0`, `1` or `⊥`.
    pub fn glyph(self) -> char {
        match self {
            Symbol::Zero => '0',
            Symbol::One => '1',
            Symbol::Silent => '⊥',
        }
    }
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.glyph())
    }
}

/// A per-round broadcast of a vertex: exactly `b` symbols (the
/// bandwidth), any of which may be silent. The all-silent message is
/// the paper's "remains silent".
///
/// Up to 64 symbols are stored inline as a `(ones, silent)` word pair
/// plus a length, the same per-position encoding the batched kernel
/// packs across lanes: position `k` is `⊥` if bit `k` of `silent` is
/// set, else the bit `k` of `ones`. Only longer messages (the wide
/// sketch bandwidths) live on the heap. The form is canonical — inline
/// iff at most 64 symbols, no bit set at or above the length, and no
/// position both silent and one — so equal symbol strings are equal
/// values with equal hashes. Cloning an inline message copies three
/// words; the type cannot be `Copy` only because the heap form exists.
///
/// Ordering is lexicographic over symbols (`0 < 1 < ⊥`), a proper
/// prefix first, exactly as for the symbol vector.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Message(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Packed { ones: u64, silent: u64, len: u8 },
    Wide(Vec<Symbol>),
}

/// The most symbols an inline message holds.
const WORD_BITS: usize = 64;

/// The low `len` bits set (`len ≤ 64`).
pub(crate) fn low_mask(len: usize) -> u64 {
    if len >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

impl Message {
    /// An all-silent message of bandwidth `b`.
    pub fn silent(b: usize) -> Message {
        if b <= WORD_BITS {
            Message::from_words(0, low_mask(b), b)
        } else {
            Message(Repr::Wide(vec![Symbol::Silent; b]))
        }
    }

    /// A single-symbol message (the `BCC(1)` case).
    pub fn single(s: Symbol) -> Message {
        Message::from_words(
            u64::from(s == Symbol::One),
            u64::from(s == Symbol::Silent),
            1,
        )
    }

    /// A message from explicit symbols.
    pub fn from_symbols(symbols: Vec<Symbol>) -> Message {
        if symbols.len() > WORD_BITS {
            Message(Repr::Wide(symbols))
        } else {
            symbols.into_iter().collect()
        }
    }

    /// A message carrying the low `b` bits of `value` (LSB first),
    /// no silent positions.
    ///
    /// # Panics
    ///
    /// Panics if `b > 64`.
    pub fn from_bits(value: u64, b: usize) -> Message {
        assert!(b <= WORD_BITS, "at most 64 bits per message");
        Message::from_words(value, 0, b)
    }

    /// A message of `len` symbols from its word pair: position `k` is
    /// `⊥` if bit `k` of `silent` is set, else bit `k` of `ones`. Bits
    /// at and above `len` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_words(ones: u64, silent: u64, len: usize) -> Message {
        assert!(len <= WORD_BITS, "at most 64 symbols in a word pair");
        let mask = low_mask(len);
        Message(Repr::Packed {
            ones: ones & !silent & mask,
            silent: silent & mask,
            len: len as u8,
        })
    }

    /// The symbols, in position order.
    pub fn symbols(&self) -> impl ExactSizeIterator<Item = Symbol> + '_ {
        (0..self.len()).map(move |k| self.symbol_at(k))
    }

    /// The symbol at position `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn symbol_at(&self, k: usize) -> Symbol {
        match &self.0 {
            Repr::Packed { ones, silent, len } => {
                assert!(
                    k < usize::from(*len),
                    "symbol {k} of a {len}-symbol message"
                );
                if silent >> k & 1 == 1 {
                    Symbol::Silent
                } else {
                    Symbol::bit(ones >> k & 1 == 1)
                }
            }
            Repr::Wide(symbols) => symbols[k],
        }
    }

    /// The 64 symbols from position `start` on as a word pair, in the
    /// encoding of [`from_words`](Message::from_words); positions at
    /// or past the length read as `⊥`.
    pub(crate) fn word_pair(&self, start: usize) -> (u64, u64) {
        match &self.0 {
            Repr::Packed { ones, silent, len } if start < usize::from(*len) => {
                let past = !low_mask(usize::from(*len) - start);
                (ones >> start, silent >> start | past)
            }
            Repr::Packed { .. } => (0, u64::MAX),
            Repr::Wide(symbols) => {
                let (mut ones, mut silent) = (0u64, 0u64);
                for k in 0..WORD_BITS {
                    match symbols.get(start + k) {
                        Some(Symbol::Zero) => {}
                        Some(Symbol::One) => ones |= 1 << k,
                        Some(Symbol::Silent) | None => silent |= 1 << k,
                    }
                }
                (ones, silent)
            }
        }
    }

    /// Message length (must equal the bandwidth once normalized).
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Packed { len, .. } => usize::from(*len),
            Repr::Wide(symbols) => symbols.len(),
        }
    }

    /// Returns `true` if the message has no symbols.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The single symbol of a bandwidth-1 message.
    ///
    /// # Panics
    ///
    /// Panics if the message does not have exactly one symbol.
    pub fn symbol(&self) -> Symbol {
        assert_eq!(self.len(), 1, "symbol() requires bandwidth 1");
        self.symbol_at(0)
    }

    /// Number of non-silent positions (the "bits actually broadcast"
    /// statistic).
    pub fn bits_used(&self) -> usize {
        match &self.0 {
            Repr::Packed { silent, len, .. } => usize::from(*len) - silent.count_ones() as usize,
            Repr::Wide(symbols) => symbols.iter().filter(|&&s| s != Symbol::Silent).count(),
        }
    }

    /// Pads with silence (or errors) to normalize to bandwidth `b`.
    ///
    /// # Panics
    ///
    /// Panics if the message is longer than `b` — a bandwidth
    /// violation by the node program.
    pub fn normalized(self, b: usize) -> Message {
        let len = self.len();
        assert!(
            len <= b,
            "bandwidth violation: message of {len} symbols with b = {b}"
        );
        match self.0 {
            Repr::Packed { ones, silent, .. } if b <= WORD_BITS => {
                Message::from_words(ones, silent | (low_mask(b) & !low_mask(len)), b)
            }
            _ => {
                let padding = std::iter::repeat_n(Symbol::Silent, b - len);
                self.symbols().chain(padding).collect()
            }
        }
    }

    /// Decodes the message as bits LSB-first; returns `None` if any
    /// position is silent or a `1` sits past position 63 (the value
    /// does not fit a `u64`).
    pub fn to_bits(&self) -> Option<u64> {
        match &self.0 {
            Repr::Packed { ones, silent, .. } => (*silent == 0).then_some(*ones),
            Repr::Wide(symbols) => {
                let mut v = 0u64;
                for (i, s) in symbols.iter().enumerate() {
                    match s {
                        Symbol::Silent => return None,
                        Symbol::One if i >= WORD_BITS => return None,
                        Symbol::One => v |= 1 << i,
                        Symbol::Zero => {}
                    }
                }
                Some(v)
            }
        }
    }
}

/// Packs up to 64 symbols straight into the word pair; only a 65th
/// symbol moves the message to the heap.
impl FromIterator<Symbol> for Message {
    fn from_iter<I: IntoIterator<Item = Symbol>>(symbols: I) -> Message {
        let mut symbols = symbols.into_iter();
        let (mut ones, mut silent) = (0u64, 0u64);
        for k in 0..WORD_BITS {
            match symbols.next() {
                None => return Message::from_words(ones, silent, k),
                Some(Symbol::Zero) => {}
                Some(Symbol::One) => ones |= 1 << k,
                Some(Symbol::Silent) => silent |= 1 << k,
            }
        }
        let head = Message::from_words(ones, silent, WORD_BITS);
        match symbols.next() {
            None => head,
            Some(next) => Message(Repr::Wide(
                head.symbols()
                    .chain(std::iter::once(next))
                    .chain(symbols)
                    .collect(),
            )),
        }
    }
}

impl Ord for Message {
    fn cmp(&self, other: &Message) -> std::cmp::Ordering {
        self.symbols().cmp(other.symbols())
    }
}

impl PartialOrd for Message {
    fn partial_cmp(&self, other: &Message) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for Message {
    /// Prints like the symbol vector it stands for:
    /// `Message([Zero, One])`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Symbols<'a>(&'a Message);
        impl std::fmt::Debug for Symbols<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list().entries(self.0.symbols()).finish()
            }
        }
        f.debug_tuple("Message").field(&Symbols(self)).finish()
    }
}

impl std::fmt::Display for Message {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in self.symbols() {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_roundtrip() {
        assert_eq!(Symbol::bit(true), Symbol::One);
        assert_eq!(Symbol::bit(false), Symbol::Zero);
        assert_eq!(Symbol::default(), Symbol::Silent);
    }

    #[test]
    fn message_bits_roundtrip() {
        let m = Message::from_bits(0b1011, 6);
        assert_eq!(m.to_bits(), Some(0b1011));
        assert_eq!(m.len(), 6);
        assert_eq!(m.bits_used(), 6);
    }

    #[test]
    fn silent_message() {
        let m = Message::silent(3);
        assert_eq!(m.bits_used(), 0);
        assert_eq!(m.to_bits(), None);
        assert_eq!(m.to_string(), "⊥⊥⊥");
    }

    #[test]
    fn normalization_pads() {
        let m = Message::single(Symbol::One).normalized(3);
        assert_eq!(m.len(), 3);
        assert_eq!(m.symbol_at(1), Symbol::Silent);
    }

    #[test]
    #[should_panic(expected = "bandwidth violation")]
    fn normalization_rejects_overlong() {
        Message::from_bits(0, 4).normalized(2);
    }

    #[test]
    fn display_glyphs() {
        let m = Message::from_symbols(vec![Symbol::Zero, Symbol::One, Symbol::Silent]);
        assert_eq!(m.to_string(), "01⊥");
    }

    #[test]
    fn single_symbol_access() {
        assert_eq!(Message::single(Symbol::Zero).symbol(), Symbol::Zero);
    }

    #[test]
    #[should_panic(expected = "bandwidth 1")]
    fn symbol_rejects_wide_message() {
        Message::silent(2).symbol();
    }
}
