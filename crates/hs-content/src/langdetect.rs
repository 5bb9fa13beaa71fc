//! Character n-gram language detection, standing in for the paper's
//! "Langdetect" Java library.
//!
//! The detector is a multinomial naive-Bayes model over character
//! trigrams, with profiles trained on documents synthesised from the
//! per-language seed lexicons of [`hs_world::lexicon`]. Pages generated
//! by the world share those lexicons but are sampled independently
//! (and English pages are mostly topic keywords the profiles have never
//! seen), so detection is realistic rather than tautological.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use hs_world::lexicon;
use hs_world::taxonomy::Language;

/// A trigram frequency profile for one language.
#[derive(Clone, Debug, Default)]
struct Profile {
    counts: HashMap<[char; 3], u32>,
    total: u64,
}

impl Profile {
    fn train(&mut self, text: &str) {
        for tri in trigrams(text) {
            *self.counts.entry(tri).or_insert(0) += 1;
            self.total += 1;
        }
    }

    /// Log-likelihood of a text's `trigrams` under this profile
    /// (Laplace-smoothed).
    fn log_likelihood(&self, trigrams: &[[char; 3]], vocab_size: f64) -> f64 {
        let mut ll = 0.0;
        for tri in trigrams {
            let c = f64::from(*self.counts.get(tri).unwrap_or(&0));
            ll += ((c + 1.0) / (self.total as f64 + vocab_size)).ln();
        }
        ll
    }
}

/// Iterates the character trigrams of space-padded, lowercased text.
fn trigrams(text: &str) -> Vec<[char; 3]> {
    let chars: Vec<char> = std::iter::once(' ')
        .chain(text.chars().flat_map(|c| c.to_lowercase()))
        .chain(std::iter::once(' '))
        .collect();
    chars.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
}

/// The trained language detector.
///
/// # Examples
///
/// ```
/// use hs_content::langdetect::LanguageDetector;
/// use hs_world::taxonomy::Language;
///
/// let det = LanguageDetector::train_default();
/// assert_eq!(det.detect("der hund und die katze sind nicht hier"), Language::German);
/// assert_eq!(det.detect("the quick brown fox jumps over the lazy dog"), Language::English);
/// ```
#[derive(Clone, Debug)]
pub struct LanguageDetector {
    profiles: Vec<(Language, Profile)>,
    vocab_size: f64,
}

impl LanguageDetector {
    /// Trains profiles for all 17 languages from the seed lexicons.
    pub fn train_default() -> Self {
        let mut rng = StdRng::seed_from_u64(0x1a9d_e7ec);
        let mut profiles = Vec::with_capacity(Language::ALL.len());
        for lang in Language::ALL {
            let words = lexicon::language_words(lang);
            let mut profile = Profile::default();
            // Several shuffled passes so trigram statistics include
            // cross-word transitions in varied orders.
            for _ in 0..6 {
                let mut doc: Vec<&str> = Vec::with_capacity(words.len() * 2);
                for _ in 0..words.len() * 2 {
                    doc.push(words[rng.random_range(0..words.len())]);
                }
                profile.train(&doc.join(" "));
            }
            // English profiles additionally see generic web vocabulary —
            // Langdetect's profiles were built from Wikipedia, which
            // covers topical English far better than stop-words alone.
            if lang == Language::English {
                for topic in hs_world::taxonomy::Topic::ALL {
                    profile.train(&lexicon::topic_keywords(topic).join(" "));
                }
            }
            profiles.push((lang, profile));
        }
        let vocab: std::collections::HashSet<[char; 3]> = profiles
            .iter()
            .flat_map(|(_, p)| p.counts.keys().copied())
            .collect();
        LanguageDetector {
            profiles,
            vocab_size: vocab.len() as f64,
        }
    }

    /// Detects the most likely language of `text`. Ties (including
    /// empty input) resolve to English, the most common language.
    pub fn detect(&self, text: &str) -> Language {
        let mut best = (Language::English, f64::NEG_INFINITY);
        for (lang, score) in self.scores(text) {
            if score > best.1 {
                best = (lang, score);
            }
        }
        best.0
    }

    /// Log-likelihood scores per language (higher = more likely). The
    /// text's trigrams are built once and scored against every profile.
    pub fn scores(&self, text: &str) -> Vec<(Language, f64)> {
        let trigrams = trigrams(text);
        self.profiles
            .iter()
            .map(|(lang, p)| (*lang, p.log_likelihood(&trigrams, self.vocab_size)))
            .collect()
    }
}

impl Default for LanguageDetector {
    fn default() -> Self {
        Self::train_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_world::service::sample_words;
    use hs_world::taxonomy::Topic;

    #[test]
    fn detects_seed_languages() {
        let det = LanguageDetector::train_default();
        let cases = [
            (
                Language::French,
                "les deux autres sont dans la maison avec nous",
            ),
            (
                Language::Spanish,
                "la página de los servicios está en español para todos",
            ),
            (
                Language::Russian,
                "это страница на русском языке для всех людей",
            ),
            (
                Language::Swedish,
                "det finns många andra sidor på svenska här",
            ),
        ];
        for (expected, text) in cases {
            assert_eq!(det.detect(text), expected, "{text}");
        }
    }

    #[test]
    fn detects_generated_pages() {
        // The real integration path: pages sampled by the world
        // generator (independent RNG, mixed topic keywords).
        let det = LanguageDetector::train_default();
        let mut rng = StdRng::seed_from_u64(42);
        let mut correct = 0u32;
        let mut total = 0u32;
        for lang in Language::ALL {
            for _ in 0..10 {
                let words = sample_words(lang, Topic::Drugs, 120, &mut rng);
                if det.detect(&words.join(" ")) == lang {
                    correct += 1;
                }
                total += 1;
            }
        }
        let acc = f64::from(correct) / f64::from(total);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn english_topical_text_detected_as_english() {
        let det = LanguageDetector::train_default();
        let mut rng = StdRng::seed_from_u64(7);
        for topic in [Topic::Adult, Topic::Weapons, Topic::Science] {
            let words = sample_words(Language::English, topic, 100, &mut rng);
            assert_eq!(det.detect(&words.join(" ")), Language::English, "{topic}");
        }
    }

    #[test]
    fn empty_text_defaults_to_english() {
        let det = LanguageDetector::train_default();
        assert_eq!(det.detect(""), Language::English);
    }

    #[test]
    fn scores_cover_all_languages() {
        let det = LanguageDetector::train_default();
        assert_eq!(det.scores("hello world").len(), Language::ALL.len());
    }

    /// Reference scores: each profile rebuilds the text's trigrams and
    /// sums the same terms.
    fn scores_per_profile(det: &LanguageDetector, text: &str) -> Vec<(Language, f64)> {
        det.profiles
            .iter()
            .map(|(lang, p)| {
                let mut ll = 0.0;
                for tri in trigrams(text) {
                    let c = f64::from(*p.counts.get(&tri).unwrap_or(&0));
                    ll += ((c + 1.0) / (p.total as f64 + det.vocab_size)).ln();
                }
                (*lang, ll)
            })
            .collect()
    }

    #[test]
    fn shared_trigrams_score_bit_identically() {
        let det = LanguageDetector::train_default();
        let mut rng = StdRng::seed_from_u64(17);
        for lang in Language::ALL {
            for topic in [Topic::Drugs, Topic::Science] {
                let page = sample_words(lang, topic, 80, &mut rng).join(" ");
                let bits = |scores: Vec<(Language, f64)>| -> Vec<(Language, u64)> {
                    scores.into_iter().map(|(l, s)| (l, s.to_bits())).collect()
                };
                assert_eq!(
                    bits(det.scores(&page)),
                    bits(scores_per_profile(&det, &page)),
                    "{lang:?} page"
                );
            }
        }
    }

    #[test]
    fn trigram_padding() {
        let t = trigrams("ab");
        assert_eq!(t, vec![[' ', 'a', 'b'], ['a', 'b', ' ']]);
        assert!(trigrams("").is_empty());
    }
}
